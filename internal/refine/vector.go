package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// RebalanceVectorWS moves nodes out of partitions that overflow any
// resource kind into partitions with room in every kind, preferring moves
// with the least cut increase — the multi-resource analogue of
// RebalanceResourcesWS. Adjacency comes from the CSR snapshot and scratch
// from ws. Returns the number of moves and whether every partition now
// fits every kind.
func RebalanceVectorWS(ws *arena.Workspace, csr *graph.CSR, vectors [][]int64, parts []int, k int,
	vc metrics.VectorConstraints, maxPasses int) (int, bool) {
	if !vc.Active() {
		return 0, true
	}
	if maxPasses <= 0 {
		maxPasses = 16
	}
	totals := metrics.PartResourceVectors(vectors, parts, k)
	cnt := metrics.PartSizes(parts, k)
	d := 0
	if len(vectors) > 0 {
		d = len(vectors[0])
	}
	overflowing := func(p int) bool {
		for kind := 0; kind < d; kind++ {
			if kind < len(vc.Rmax) && vc.Rmax[kind] > 0 && totals[p][kind] > vc.Rmax[kind] {
				return true
			}
		}
		return false
	}
	fitsAfterAdd := func(p, u int) bool {
		for kind := 0; kind < d; kind++ {
			if kind < len(vc.Rmax) && vc.Rmax[kind] > 0 &&
				totals[p][kind]+vectors[u][kind] > vc.Rmax[kind] {
				return false
			}
		}
		return true
	}
	allFit := func() bool {
		for p := 0; p < k; p++ {
			if overflowing(p) {
				return false
			}
		}
		return true
	}
	// relieves reports whether moving u out of its part reduces an
	// overflowing kind — pointless moves are never considered.
	relieves := func(u int) bool {
		from := parts[u]
		for kind := 0; kind < d; kind++ {
			if kind < len(vc.Rmax) && vc.Rmax[kind] > 0 &&
				totals[from][kind] > vc.Rmax[kind] && vectors[u][kind] > 0 {
				return true
			}
		}
		return false
	}

	moves := 0
	n := csr.NumNodes()
	conn := ws.Int64s.Get(k)
	defer ws.Int64s.Put(conn)
	maxMoves := maxPasses * n
	for moves < maxMoves && !allFit() {
		// Globally cheapest relieving move across all overflowing parts.
		bestU, bestTo := -1, -1
		var bestCost int64
		for u := 0; u < n; u++ {
			from := parts[u]
			if !overflowing(from) || cnt[from] == 1 || !relieves(u) {
				continue
			}
			for i := range conn {
				conn[i] = 0
			}
			adj, wts := csr.Row(graph.Node(u))
			for i, v := range adj {
				conn[parts[v]] += wts[i]
			}
			for to := 0; to < k; to++ {
				if to == from || !fitsAfterAdd(to, u) {
					continue
				}
				cost := conn[from] - conn[to]
				if bestU < 0 || cost < bestCost {
					bestU, bestTo, bestCost = u, to, cost
				}
			}
		}
		if bestU < 0 {
			break
		}
		from := parts[bestU]
		for kind := 0; kind < d; kind++ {
			totals[from][kind] -= vectors[bestU][kind]
			totals[bestTo][kind] += vectors[bestU][kind]
		}
		cnt[from]--
		cnt[bestTo]++
		parts[bestU] = bestTo
		moves++
	}
	return moves, allFit()
}
