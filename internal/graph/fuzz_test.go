package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic and never return a graph
// violating its own invariants, whatever bytes arrive. Run with
// `go test -fuzz FuzzReadMETIS ./internal/graph` for a real campaign;
// under plain `go test` the seed corpus doubles as regression tests.

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
	})
}
