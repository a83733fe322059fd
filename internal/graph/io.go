package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the interchange formats:
//
//   - METIS .graph format (the format the paper's baseline consumes),
//     with the standard fmt flags for node and edge weights;
//   - a JSON format carrying names and weights (used by the CLI tools);
//   - a whitespace incidence-matrix format (the paper fed incidence
//     matrices to MATLAB);
//   - a plain weighted edge list;
//   - the partition file: one "node part" line per node.

// MaxNodes is the largest node count ReadMETIS and ReadEdgeList accept
// from a header: 2^24, sixteen times the 10^6-node scale the partitioner
// targets. ReadEdgeList sizes the graph from the header before reading a
// line, so without the bound a 12-byte header could ask for tens of GB.
const MaxNodes = 1 << 24

// ErrTooManyNodes is returned (wrapped) by ReadMETIS and ReadEdgeList for
// a header whose node count exceeds MaxNodes.
var ErrTooManyNodes = errors.New("node count exceeds graph.MaxNodes")

// parseNodeCount parses a header's node count, rejecting a negative or
// malformed count and, with ErrTooManyNodes, one above MaxNodes.
func parseNodeCount(format, field string) (int, error) {
	n, err := strconv.Atoi(field)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s: bad node count %q", format, field)
	}
	if n > MaxNodes {
		return 0, fmt.Errorf("%s: %w: %d > %d", format, ErrTooManyNodes, n, MaxNodes)
	}
	return n, nil
}

// WriteMETIS writes g in METIS .graph format with both node weights and
// edge weights (fmt code 011). Node ids are 1-based per the format.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	c := g.ToCSR()
	fmt.Fprintf(bw, "%d %d 011\n", c.NumNodes(), c.NumEdges())
	for u := 0; u < c.NumNodes(); u++ {
		parts := make([]string, 0, 1+2*c.Degree(Node(u)))
		parts = append(parts, strconv.FormatInt(c.NodeW[u], 10))
		nbrs, wts := c.Row(Node(u))
		order := make([]int, len(nbrs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return nbrs[order[i]] < nbrs[order[j]] })
		for _, i := range order {
			parts = append(parts, strconv.Itoa(int(nbrs[i])+1), strconv.FormatInt(wts[i], 10))
		}
		fmt.Fprintln(bw, strings.Join(parts, " "))
	}
	return bw.Flush()
}

// ReadMETIS parses the METIS .graph format. Supported fmt codes: "" / 0
// (no weights), 1 (edge weights), 10 (node weights), 11 (both), with an
// optional leading third digit for multiple node weights (only ncon=1 is
// supported). Comment lines start with '%'. A header node count above
// MaxNodes is rejected with ErrTooManyNodes.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var header []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		header = strings.Fields(line)
		break
	}
	if header == nil {
		return nil, fmt.Errorf("metis: empty input")
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("metis: malformed header %q", strings.Join(header, " "))
	}
	n, err := parseNodeCount("metis", header[0])
	if err != nil {
		return nil, err
	}
	m, err := strconv.Atoi(header[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("metis: bad edge count %q", header[1])
	}
	hasNodeW, hasEdgeW := false, false
	if len(header) >= 3 {
		code := header[2]
		// The fmt field is read right-to-left: last digit = edge weights,
		// second-to-last = node weights, third = node sizes (unsupported).
		if len(code) >= 1 && code[len(code)-1] == '1' {
			hasEdgeW = true
		}
		if len(code) >= 2 && code[len(code)-2] == '1' {
			hasNodeW = true
		}
		if len(code) >= 3 && code[len(code)-3] == '1' {
			return nil, fmt.Errorf("metis: vertex sizes (fmt %s) unsupported", code)
		}
	}
	if len(header) >= 4 {
		ncon, err := strconv.Atoi(header[3])
		if err != nil || ncon != 1 {
			return nil, fmt.Errorf("metis: only ncon=1 supported, got %q", header[3])
		}
	}
	// The header's counts are not trusted for allocation: rows are parsed
	// first and the graph is sized from the rows actually read, so a short
	// input claiming a huge node count fails cleanly.
	type metisEdge struct {
		u, v Node
		w    int64
	}
	var nodeW []int64
	var edges []metisEdge
	row := 0
	for row < n {
		if !sc.Scan() {
			return nil, fmt.Errorf("metis: expected %d adjacency rows, got %d", n, row)
		}
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		idx := 0
		if hasNodeW {
			if len(fields) == 0 {
				return nil, fmt.Errorf("metis: row %d missing node weight", row+1)
			}
			nw, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || nw < 0 {
				return nil, fmt.Errorf("metis: row %d bad node weight %q", row+1, fields[0])
			}
			nodeW = append(nodeW, nw)
			idx = 1
		}
		for idx < len(fields) {
			v, err := strconv.Atoi(fields[idx])
			if err != nil || v < 1 || v > n {
				return nil, fmt.Errorf("metis: row %d bad neighbor %q", row+1, fields[idx])
			}
			idx++
			var ew int64 = 1
			if hasEdgeW {
				if idx >= len(fields) {
					return nil, fmt.Errorf("metis: row %d missing edge weight", row+1)
				}
				ew, err = strconv.ParseInt(fields[idx], 10, 64)
				if err != nil || ew < 0 {
					return nil, fmt.Errorf("metis: row %d bad edge weight %q", row+1, fields[idx])
				}
				idx++
			}
			// Each edge appears in both endpoint rows; add it once.
			if Node(row) < Node(v-1) {
				edges = append(edges, metisEdge{Node(row), Node(v - 1), ew})
			}
		}
		row++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(n)
	for u, w := range nodeW {
		g.SetNodeWeight(Node(u), w)
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			return nil, fmt.Errorf("metis: row %d: %v", e.u+1, err)
		}
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("metis: header declares %d edges, adjacency has %d", m, g.NumEdges())
	}
	return g, nil
}

// jsonGraph is the JSON wire form.
type jsonGraph struct {
	Nodes      []jsonNode      `json:"nodes"`
	Edges      []jsonEdge      `json:"edges"`
	HyperEdges []jsonHyperEdge `json:"hyperedges,omitempty"`
}

type jsonNode struct {
	ID     int    `json:"id"`
	Weight int64  `json:"weight"`
	Name   string `json:"name,omitempty"`
}

type jsonEdge struct {
	U      int   `json:"u"`
	V      int   `json:"v"`
	Weight int64 `json:"weight"`
}

// jsonHyperEdge carries a one-writer/many-reader net: pins[0] is the
// writer, the rest are readers.
type jsonHyperEdge struct {
	Pins   []int `json:"pins"`
	Weight int64 `json:"weight"`
}

// WriteJSON writes g as JSON with names preserved.
func WriteJSON(w io.Writer, g *Graph) error {
	jg := jsonGraph{}
	for u := 0; u < g.NumNodes(); u++ {
		jg.Nodes = append(jg.Nodes, jsonNode{ID: u, Weight: g.NodeWeight(Node(u)), Name: g.Name(Node(u))})
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{U: int(e.U), V: int(e.V), Weight: e.Weight})
	}
	for i := 0; i < g.NumHyperEdges(); i++ {
		h := g.HyperEdge(i)
		pins := make([]int, len(h.Pins))
		for i, p := range h.Pins {
			pins[i] = int(p)
		}
		jg.HyperEdges = append(jg.HyperEdges, jsonHyperEdge{Pins: pins, Weight: h.Weight})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jg)
}

// ReadJSON parses the JSON graph form. Node ids must be dense 0..n-1.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("json graph: %v", err)
	}
	n := len(jg.Nodes)
	w := make([]int64, n)
	names := make([]string, n)
	for _, nd := range jg.Nodes {
		if nd.ID < 0 || nd.ID >= n {
			return nil, fmt.Errorf("json graph: node id %d not dense in [0,%d)", nd.ID, n)
		}
		if nd.Weight < 0 {
			return nil, fmt.Errorf("json graph: node %d has negative weight %d", nd.ID, nd.Weight)
		}
		w[nd.ID] = nd.Weight
		names[nd.ID] = nd.Name
	}
	g := NewWithWeights(w)
	for i, name := range names {
		if name != "" {
			g.SetName(Node(i), name)
		}
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(Node(e.U), Node(e.V), e.Weight); err != nil {
			return nil, fmt.Errorf("json graph: %v", err)
		}
	}
	for _, h := range jg.HyperEdges {
		pins := make([]Node, len(h.Pins))
		for i, p := range h.Pins {
			pins[i] = Node(p)
		}
		if err := g.AddHyperEdge(pins, h.Weight); err != nil {
			return nil, fmt.Errorf("json graph: %v", err)
		}
	}
	return g, nil
}

// WriteIncidence writes the weighted incidence matrix: one row per node,
// one column per edge; entry = edge weight at its two endpoints, 0
// elsewhere. A final extra column carries the node weight. This mirrors
// the matrices the paper fed to MATLAB (with the resource vector
// appended).
func WriteIncidence(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	edges := g.Edges()
	fmt.Fprintf(bw, "%% incidence %d nodes %d edges; last column = node weight\n", g.NumNodes(), len(edges))
	for u := 0; u < g.NumNodes(); u++ {
		row := make([]string, 0, len(edges)+1)
		for _, e := range edges {
			if int(e.U) == u || int(e.V) == u {
				row = append(row, strconv.FormatInt(e.Weight, 10))
			} else {
				row = append(row, "0")
			}
		}
		row = append(row, strconv.FormatInt(g.NodeWeight(Node(u)), 10))
		fmt.Fprintln(bw, strings.Join(row, " "))
	}
	return bw.Flush()
}

// ReadIncidence parses the incidence format written by WriteIncidence.
func ReadIncidence(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rows [][]int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		row := make([]int64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("incidence: bad entry %q", f)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("incidence: empty input")
	}
	cols := len(rows[0])
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("incidence: row %d has %d columns, expected %d", i, len(row), cols)
		}
	}
	n := len(rows)
	w := make([]int64, n)
	for i := range rows {
		w[i] = rows[i][cols-1]
		if w[i] < 0 {
			return nil, fmt.Errorf("incidence: node %d has negative weight %d", i, w[i])
		}
	}
	g := NewWithWeights(w)
	for c := 0; c < cols-1; c++ {
		var ends []int
		var ew int64
		for rIdx := 0; rIdx < n; rIdx++ {
			if rows[rIdx][c] != 0 {
				ends = append(ends, rIdx)
				ew = rows[rIdx][c]
			}
		}
		if len(ends) != 2 {
			return nil, fmt.Errorf("incidence: column %d has %d nonzero entries, expected 2", c, len(ends))
		}
		if rows[ends[0]][c] != rows[ends[1]][c] {
			return nil, fmt.Errorf("incidence: column %d endpoint weights disagree", c)
		}
		if err := g.AddEdge(Node(ends[0]), Node(ends[1]), ew); err != nil {
			return nil, fmt.Errorf("incidence: column %d: %v", c, err)
		}
	}
	return g, nil
}

// WriteEdgeList writes "u v w" lines preceded by a "n m" header and
// "# node u w" weight lines for nodes with weight != 1.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.NumNodes(), g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		if g.NodeWeight(Node(u)) != 1 {
			fmt.Fprintf(bw, "# node %d %d\n", u, g.NodeWeight(Node(u)))
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.Weight)
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list format written by WriteEdgeList. The
// header's node count is allocated up front, so it must not exceed
// MaxNodes (ErrTooManyNodes).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("edgelist: empty input")
	}
	head := strings.Fields(strings.TrimSpace(sc.Text()))
	if len(head) != 2 {
		return nil, fmt.Errorf("edgelist: malformed header %q", sc.Text())
	}
	n, err := parseNodeCount("edgelist", head[0])
	if err != nil {
		return nil, err
	}
	m, err := strconv.Atoi(head[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("edgelist: bad edge count %q", head[1])
	}
	g := New(n)
	got := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# node ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("edgelist: malformed node weight line %q", line)
			}
			u, err1 := strconv.Atoi(fields[2])
			nw, err2 := strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || u < 0 || u >= n || nw < 0 {
				return nil, fmt.Errorf("edgelist: malformed node weight line %q", line)
			}
			g.SetNodeWeight(Node(u), nw)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("edgelist: malformed edge line %q", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		ew, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("edgelist: malformed edge line %q", line)
		}
		if err := g.AddEdge(Node(u), Node(v), ew); err != nil {
			return nil, fmt.Errorf("edgelist: %v", err)
		}
		got++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if got != m {
		return nil, fmt.Errorf("edgelist: header declares %d edges, body has %d", m, got)
	}
	return g, nil
}

// WritePartition writes an assignment as "node part" lines in node order.
func WritePartition(w io.Writer, parts []int) error {
	bw := bufio.NewWriter(w)
	for u, p := range parts {
		fmt.Fprintf(bw, "%d %d\n", u, p)
	}
	return bw.Flush()
}

// ReadPartition parses the "node part" lines WritePartition writes into
// an assignment of n nodes. Blank lines and lines starting with '#' are
// skipped; every node in [0,n) must be assigned exactly once.
func ReadPartition(r io.Reader, n int) ([]int, error) {
	parts := make([]int, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("partition: malformed line %q", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		p, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("partition: malformed line %q", line)
		}
		if u < 0 || u >= n {
			return nil, fmt.Errorf("partition: node %d out of range [0,%d)", u, n)
		}
		if seen[u] {
			return nil, fmt.Errorf("partition: node %d assigned twice", u)
		}
		seen[u] = true
		parts[u] = p
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	for u, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("partition: node %d unassigned", u)
		}
	}
	return parts, nil
}
