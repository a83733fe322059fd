package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		if a.NodeWeight(Node(u)) != b.NodeWeight(Node(u)) {
			return false
		}
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

func TestMETISRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatalf("ReadMETIS: %v\n", err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("METIS round trip lost data")
	}
}

func TestReadMETISUnweighted(t *testing.T) {
	in := `% a comment
3 2
2
1 3
2
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("shape = %s", g)
	}
	if g.EdgeWeight(0, 1) != 1 || g.EdgeWeight(1, 2) != 1 {
		t.Fatal("default edge weights should be 1")
	}
	if g.NodeWeight(0) != 1 {
		t.Fatal("default node weights should be 1")
	}
}

func TestReadMETISEdgeWeightsOnly(t *testing.T) {
	in := "2 1 001\n2 9\n1 9\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeWeight(0, 1) != 9 {
		t.Fatalf("edge weight = %d, want 9", g.EdgeWeight(0, 1))
	}
}

func TestReadMETISNodeWeightsOnly(t *testing.T) {
	in := "2 1 010\n5 2\n7 1\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeWeight(0) != 5 || g.NodeWeight(1) != 7 {
		t.Fatal("node weights lost")
	}
	if g.EdgeWeight(0, 1) != 1 {
		t.Fatal("edge weight should default to 1")
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"shortHeader", "5\n"},
		{"badNodeCount", "x 1\n"},
		{"badEdgeCount", "2 y\n"},
		{"missingRows", "3 0\n\n"},
		{"badNeighbor", "2 1\n7\n1\n"},
		{"neighborZero", "2 1\n0\n1\n"},
		{"edgeCountMismatch", "3 5\n2\n1 3\n2\n"},
		{"vertexSizes", "2 1 111\n1 2 1\n1 1 1\n"},
		{"badNcon", "2 1 011 2\n1 2 1\n1 1 1\n"},
		{"missingEdgeWeight", "2 1 001\n2\n1\n"},
		{"badNodeWeight", "2 1 010\nx 2\n1 1\n"},
	}
	for _, c := range cases {
		if _, err := ReadMETIS(strings.NewReader(c.in)); err == nil {
			t.Errorf("case %s: malformed input accepted", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	g.SetName(0, "proc0")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("JSON round trip lost data")
	}
	if back.Name(0) != "proc0" {
		t.Fatal("JSON round trip lost names")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":5,"weight":1}],"edges":[]}`)); err == nil {
		t.Fatal("non-dense node id accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":0,"weight":1}],"edges":[{"u":0,"v":9,"weight":1}]}`)); err == nil {
		t.Fatal("dangling edge accepted")
	}
}

func TestIncidenceRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := WriteIncidence(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIncidence(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("incidence round trip lost data")
	}
}

func TestReadIncidenceErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", "% only comments\n"},
		{"ragged", "1 0 5\n0 1\n"},
		{"threeEndpoints", "1 1\n1 1\n1 1\n"}, // first column has 3 nonzeros incl. weight col? construct carefully below
		{"badEntry", "x 5\n0 5\n"},
	}
	for _, c := range cases {
		if _, err := ReadIncidence(strings.NewReader(c.in)); err == nil {
			t.Errorf("case %s: malformed input accepted", c.name)
		}
	}
	// A column whose endpoint weights disagree.
	in := "3 10\n4 20\n0 30\n"
	if _, err := ReadIncidence(strings.NewReader(in)); err == nil {
		t.Error("disagreeing endpoint weights accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("edge list round trip lost data")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"2\n",
		"x 1\n0 1 1\n",
		"2 z\n0 1 1\n",
		"2 1\n0 1\n",
		"2 1\n0 9 1\n",
		"2 2\n0 1 1\n",
		"2 1\n# node 9 5\n0 1 1\n",
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

func TestPropertyFormatsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(25), rng.Intn(50))
		var m, j, e bytes.Buffer
		if WriteMETIS(&m, g) != nil || WriteJSON(&j, g) != nil || WriteEdgeList(&e, g) != nil {
			return false
		}
		gm, err1 := ReadMETIS(&m)
		gj, err2 := ReadJSON(&j)
		ge, err3 := ReadEdgeList(&e)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return graphsEqual(g, gm) && graphsEqual(g, gj) && graphsEqual(g, ge)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParsersRejectNegativeWeights(t *testing.T) {
	// Regression for a fuzzer finding: a bare negative number is a valid
	// single-node incidence matrix body but an invalid node weight.
	if _, err := ReadIncidence(strings.NewReader("-10")); err == nil {
		t.Fatal("incidence negative node weight accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("1 0\n# node 0 -5\n")); err == nil {
		t.Fatal("edgelist negative node weight accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":0,"weight":-1}],"edges":[]}`)); err == nil {
		t.Fatal("json negative node weight accepted")
	}
	if _, err := ReadMETIS(strings.NewReader("1 0 010\n-4\n")); err == nil {
		t.Fatal("metis negative node weight accepted")
	}
}

// TestReadersRejectHugeNodeCount feeds a 12-byte header that declares a
// billion nodes. Both readers must refuse it with ErrTooManyNodes before
// sizing anything from it, so the call allocates about the scanner
// buffer, not the tens of GB the header asks for.
func TestReadersRejectHugeNodeCount(t *testing.T) {
	const input = "999999999 0\n"
	if len(input) != 12 {
		t.Fatalf("input is %d bytes", len(input))
	}
	readers := map[string]func(string) (*Graph, error){
		"edgelist": func(s string) (*Graph, error) { return ReadEdgeList(strings.NewReader(s)) },
		"metis":    func(s string) (*Graph, error) { return ReadMETIS(strings.NewReader(s)) },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(input)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooManyNodes) {
			t.Fatalf("%s: err = %v, want ErrTooManyNodes", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("%s: rejecting the header allocated %d bytes", name, alloc)
		}
	}
	// At the limit the header is accepted. METIS sizes nothing from the
	// count, so it fails on the missing rows instead.
	if _, err := ReadMETIS(strings.NewReader(fmt.Sprintf("%d 0\n", MaxNodes))); err == nil || errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("metis: a count of MaxNodes gave %v, want a missing-rows error", err)
	}
}
