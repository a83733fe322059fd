package pstate

import (
	"math/rand"
	"slices"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

// pairExcess is Σ_{i<j} max(0, bw[i][j]−bmax) over a row-major K×K
// matrix.
func pairExcess(bw []int64, k int, bmax int64) int64 {
	var ex int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			ex += max(0, bw[i*k+j]-bmax)
		}
	}
	return ex
}

// TestRowGatherAndBandwidthDelta checks the row against dense oracles on
// graphs where about a third of the edges weigh zero and some nodes are
// unassigned: W is the dense per-part weight over assigned neighbours,
// Parts lists exactly the parts of positive weight, each once, and
// BandwidthDelta equals the excess change of taking the node's edges out
// of part `from` (none when -1) and into part `to` on a random matrix.
// One workspace row serves every gather, so stale entries would show.
func TestRowGatherAndBandwidthDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ws := &arena.Workspace{}
	for trial := 0; trial < 300; trial++ {
		n, k := 2+rng.Intn(40), 1+rng.Intn(7)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				w := int64(rng.Intn(6))
				if rng.Intn(3) == 0 {
					w = 0
				}
				_ = g.AddEdge(graph.Node(u), graph.Node(v), w)
			}
		}
		c := g.ToCSR()
		parts := make([]int, n)
		for u := range parts {
			parts[u] = rng.Intn(k+1) - 1
		}
		row := NewRow(ws, k)
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			row.Gather(c, parts, un)
			dense := make([]int64, k)
			adj, wts := c.Row(un)
			for i, v := range adj {
				if parts[v] >= 0 {
					dense[parts[v]] += wts[i]
				}
			}
			if !slices.Equal(row.W, dense) {
				t.Fatalf("trial %d node %d: W = %v, want %v", trial, u, row.W, dense)
			}
			var want []int
			for p, w := range dense {
				if w > 0 {
					want = append(want, p)
				}
			}
			got := slices.Clone(row.Parts)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d node %d: Parts = %v, want each of %v once", trial, u, row.Parts, want)
			}

			bw := make([]int64, k*k)
			for p := 0; p < k; p++ {
				for q := p + 1; q < k; q++ {
					b := rng.Int63n(30)
					bw[p*k+q], bw[q*k+p] = b, b
				}
			}
			bmax := rng.Int63n(25) - 2
			for from := -1; from < k; from++ {
				for to := 0; to < k; to++ {
					after := slices.Clone(bw)
					if from != to {
						for p, w := range dense {
							if from >= 0 && p != from {
								after[from*k+p] -= w
								after[p*k+from] -= w
							}
							if p != to {
								after[to*k+p] += w
								after[p*k+to] += w
							}
						}
					}
					wantD := int64(0)
					if bmax > 0 {
						wantD = pairExcess(after, k, bmax) - pairExcess(bw, k, bmax)
					}
					if d := row.BandwidthDelta(bw, bmax, from, to); d != wantD {
						t.Fatalf("trial %d node %d: BandwidthDelta(from %d, to %d, bmax %d) = %d, want %d",
							trial, u, from, to, bmax, d, wantD)
					}
				}
			}
		}
		row.Release(ws)
	}
}
