package pstate

import (
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// FuzzStateDifferential drives a State with a fuzz-chosen graph, partition
// and move/undo sequence, and cross-checks every maintained quantity
// against the from-scratch metrics implementations after each step, and
// every MoveDelta against the move it predicts. Chord weights include 0.
// Any divergence between the incremental engine and the reference is a
// bug.
func FuzzStateDifferential(f *testing.F) {
	f.Add([]byte{8, 3, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{12, 2, 0, 9, 9, 9, 1, 0, 255, 254, 3})
	f.Add([]byte{4, 4, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%30) + 2
		k := int(data[1]%5) + 1
		// Constraints from one byte: 0 disables, else small bounds that the
		// fuzz graphs routinely violate, exercising the excess counters.
		var c metrics.Constraints
		if data[2]%3 != 0 {
			c.Bmax = int64(data[2]%40) + 1
		}
		if data[2]%2 != 0 {
			c.Rmax = int64(data[2])%120 + 10
		}
		data = data[3:]

		g := graph.New(n)
		// Ring backbone keeps the graph connected, then fuzz-chosen chords.
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(i%7)+1)
		}
		i := 0
		for ; i+2 < len(data) && i < 4*n; i += 3 {
			u := int(data[i]) % n
			v := int(data[i+1]) % n
			if u != v {
				g.MustAddEdge(graph.Node(u), graph.Node(v), int64(data[i+2]%10))
			}
		}
		data = data[i:]

		parts := make([]int, n)
		for u := range parts {
			if u < len(data) {
				parts[u] = int(data[u]) % k
			}
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}

		s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
		if err != nil {
			t.Fatalf("New rejected valid input: %v", err)
		}
		check := func() {
			if got, want := s.Cut(), metrics.EdgeCut(g, s.Parts()); got != want {
				t.Fatalf("cut diverged: incremental %d, scratch %d", got, want)
			}
			m := metrics.BandwidthMatrix(g, s.Parts(), k)
			for a := 0; a < k; a++ {
				for b := 0; b < k; b++ {
					if s.Bandwidth(a, b) != m[a][b] {
						t.Fatalf("bw[%d][%d] diverged: %d vs %d", a, b, s.Bandwidth(a, b), m[a][b])
					}
				}
			}
			res := metrics.PartResources(g, s.Parts(), k)
			for p := 0; p < k; p++ {
				if s.Resource(p) != res[p] {
					t.Fatalf("res[%d] diverged: %d vs %d", p, s.Resource(p), res[p])
				}
			}
			var wantExcess int64
			for _, v := range metrics.CheckConstraints(g, s.Parts(), k, c) {
				wantExcess += v.Value - v.Limit
			}
			bwEx, resEx, _ := s.Excess()
			if bwEx+resEx != wantExcess {
				t.Fatalf("excess diverged: %d+%d vs %d", bwEx, resEx, wantExcess)
			}
			if got, want := s.Goodness(), metrics.Goodness(g, s.Parts(), k, c); got != want {
				t.Fatalf("goodness diverged: %v vs %v", got, want)
			}
			if got, want := s.Feasible(), metrics.Feasible(g, s.Parts(), k, c); got != want {
				t.Fatalf("feasible diverged: %v vs %v", got, want)
			}
		}
		check()
		for j := 0; j+1 < len(data); j += 2 {
			if data[j]%5 == 4 {
				s.Undo()
			} else {
				u, to := graph.Node(int(data[j])%n), int(data[j+1])%k
				cd, bd, rd := s.MoveDelta(u, to)
				cut0 := s.Cut()
				bw0, res0, _ := s.Excess()
				s.Move(u, to)
				bw1, res1, _ := s.Excess()
				if s.Cut()-cut0 != cd || bw1-bw0 != bd || res1-res0 != rd {
					t.Fatalf("MoveDelta(%d, %d) = (%d,%d,%d), the move made (%d,%d,%d)",
						u, to, cd, bd, rd, s.Cut()-cut0, bw1-bw0, res1-res0)
				}
			}
			check()
		}
		for s.Undo() {
		}
		check()
	})
}
