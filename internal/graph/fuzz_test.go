package graph

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and never return a graph
// violating its own invariants, whatever bytes arrive, and the graph a
// parser builds must equal the adjacency-list reference (fold_test.go)
// fed the same calls. Run with `go test -fuzz FuzzReadMETIS
// ./internal/graph` for a real campaign; under plain `go test` the seed
// corpus doubles as regression tests.

// maxRefNodes bounds the graphs checked against the reference: a header
// may declare millions of nodes in a few bytes, and the reference keeps a
// slice per node.
const maxRefNodes = 1 << 16

// checkRef compares a parsed graph with the reference the replay of its
// input built.
func checkRef(t *testing.T, g *Graph, input string, replay func(*testing.T, []string) *refGraph) {
	t.Helper()
	if g.NumNodes() > maxRefNodes {
		return
	}
	lines := strings.Split(input, "\n")
	for i := range lines {
		lines[i] = strings.TrimSpace(lines[i])
	}
	if err := sameAsRef(g, replay(t, lines)); err != nil {
		t.Fatalf("parsed graph differs from the reference: %v\ninput: %q", err, input)
	}
}

// metisRef replays the calls ReadMETIS makes on lines it accepted: unit
// weights, then the node weights, then each row's edges to higher nodes.
func metisRef(t *testing.T, lines []string) *refGraph {
	for strings.HasPrefix(lines[0], "%") || lines[0] == "" {
		lines = lines[1:]
	}
	head := strings.Fields(lines[0])
	n, _ := strconv.Atoi(head[0])
	code := ""
	if len(head) >= 3 {
		code = head[2]
	}
	hasEdgeW := strings.HasSuffix(code, "1")
	hasNodeW := len(code) >= 2 && code[len(code)-2] == '1'
	w := New(n).NodeWeights()
	var edges []Edge
	for row, i := 0, 1; row < n; i++ {
		if strings.HasPrefix(lines[i], "%") {
			continue
		}
		f := strings.Fields(lines[i])
		if hasNodeW {
			w[row], _ = strconv.ParseInt(f[0], 10, 64)
			f = f[1:]
		}
		for len(f) > 0 {
			v, _ := strconv.Atoi(f[0])
			ew := int64(1)
			f = f[1:]
			if hasEdgeW {
				ew, _ = strconv.ParseInt(f[0], 10, 64)
				f = f[1:]
			}
			if row < v-1 {
				edges = append(edges, Edge{Node(row), Node(v - 1), ew})
			}
		}
		row++
	}
	return refFromEdges(t, w, edges)
}

// edgeListRef replays the calls ReadEdgeList makes on lines it accepted.
func edgeListRef(t *testing.T, lines []string) *refGraph {
	n, _ := strconv.Atoi(strings.Fields(lines[0])[0])
	w := New(n).NodeWeights()
	var edges []Edge
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		switch {
		case strings.HasPrefix(l, "# node "):
			u, _ := strconv.Atoi(f[2])
			w[u], _ = strconv.ParseInt(f[3], 10, 64)
		case l != "" && !strings.HasPrefix(l, "#"):
			u, _ := strconv.Atoi(f[0])
			v, _ := strconv.Atoi(f[1])
			ew, _ := strconv.ParseInt(f[2], 10, 64)
			edges = append(edges, Edge{Node(u), Node(v), ew})
		}
	}
	return refFromEdges(t, w, edges)
}

// incidenceRef replays the calls ReadIncidence makes on lines it
// accepted: one edge per column, in column order.
func incidenceRef(t *testing.T, lines []string) *refGraph {
	var rows [][]int64
	for _, l := range lines {
		if l == "" || strings.HasPrefix(l, "%") {
			continue
		}
		var row []int64
		for _, f := range strings.Fields(l) {
			x, _ := strconv.ParseInt(f, 10, 64)
			row = append(row, x)
		}
		rows = append(rows, row)
	}
	cols := len(rows[0])
	w := make([]int64, len(rows))
	for i, row := range rows {
		w[i] = row[cols-1]
	}
	var edges []Edge
	for c := 0; c < cols-1; c++ {
		var ends []Node
		for i, row := range rows {
			if row[c] != 0 {
				ends = append(ends, Node(i))
			}
		}
		edges = append(edges, Edge{ends[0], ends[1], rows[ends[0]][c]})
	}
	return refFromEdges(t, w, edges)
}

// jsonRef replays the calls ReadJSON makes on the input it accepted.
func jsonRef(t *testing.T, lines []string) *refGraph {
	var jg jsonGraph
	if err := json.NewDecoder(strings.NewReader(strings.Join(lines, "\n"))).Decode(&jg); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	w := make([]int64, len(jg.Nodes))
	for _, nd := range jg.Nodes {
		w[nd.ID] = nd.Weight
	}
	var edges []Edge
	for _, e := range jg.Edges {
		edges = append(edges, Edge{Node(e.U), Node(e.V), e.Weight})
	}
	r := refFromEdges(t, w, edges)
	for _, h := range jg.HyperEdges {
		pins := make([]Node, len(h.Pins))
		for i, p := range h.Pins {
			pins[i] = Node(p)
		}
		if err := r.addNet(pins, h.Weight); err != nil {
			t.Fatalf("reference rejects a net the parser accepted: %v", err)
		}
	}
	return r
}

func FuzzReadMETIS(f *testing.F) {
	f.Add("3 2 011\n1 2 5\n1 1 5 3 7\n1 2 7\n")
	f.Add("2 1\n2\n1\n")
	f.Add("1 0 010\n9\n")
	f.Add("% comment\n2 1 001\n2 4\n1 4\n")
	f.Add("")
	f.Add("x y z\n")
	f.Add("3 2\n\n\n\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadMETIS(strings.NewReader(input))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("parsed graph violates invariants: %v\ninput: %q", vErr, input)
		}
		checkRef(t, g, input, metisRef)
		// Round trip: what we wrote must parse back equal.
		var buf bytes.Buffer
		if wErr := WriteMETIS(&buf, g); wErr != nil {
			t.Fatalf("write failed on valid graph: %v", wErr)
		}
		back, rErr := ReadMETIS(&buf)
		if rErr != nil {
			t.Fatalf("round trip failed: %v", rErr)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("round trip not identical for input %q", input)
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add("3 2\n0 1 5\n1 2 7\n")
	f.Add("2 1\n# node 0 9\n0 1 3\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("5 0\n# garbage\n")
	f.Add("999999999 0\n") // rejected before any allocation (MaxNodes)
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("parsed graph violates invariants: %v\ninput: %q", vErr, input)
		}
		checkRef(t, g, input, edgeListRef)
	})
}

func FuzzReadIncidence(f *testing.F) {
	f.Add("5 0 10\n5 3 20\n0 3 30\n")
	f.Add("")
	f.Add("1 1\n1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadIncidence(strings.NewReader(input))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("parsed graph violates invariants: %v\ninput: %q", vErr, input)
		}
		checkRef(t, g, input, incidenceRef)
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Add(`{"nodes":[{"id":0,"weight":3},{"id":1,"weight":4}],"edges":[{"u":0,"v":1,"weight":5}]}`)
	f.Add(`{}`)
	f.Add(`{"nodes":[],"edges":[]}`)
	f.Add(`{"nodes":[{"id":0,"weight":-3}],"edges":[]}`)
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("parsed graph violates invariants: %v\ninput: %q", vErr, input)
		}
		checkRef(t, g, input, jsonRef)
	})
}
