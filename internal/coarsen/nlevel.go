package coarsen

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
)

// This file implements the n-level coarsening variant of Osipov & Sanders
// ("n-level graph partitioning", ESA 2010), which §III of the paper
// contrasts with the classic scheme: instead of contracting a whole
// matching per level, exactly ONE edge is contracted per level, always a
// currently-heaviest edge. The hierarchy becomes very deep but each level
// is a minimal perturbation, which lets local search during uncoarsening
// act "highly localized around the un-contracted edge". Here it powers
// the A6 ablation comparing the two coarsening regimes inside GP.

// edgeItem identifies one candidate contraction.
type edgeItem struct {
	u, v graph.Node
	w    int64
}

// BuildNLevelWS constructs an n-level hierarchy: one heaviest-edge
// contraction per level until targetSize nodes remain (or no edges are
// left). Fully deterministic: ties break toward the lexicographically
// smallest endpoint pair. Because ContractWS renumbers nodes each level, a
// cross-level priority queue cannot be reused; a per-level scan keeps the
// implementation exact, which is ample for the ablation-scale workloads
// this variant serves. Per-level contraction scratch is drawn from ws.
func BuildNLevelWS(ws *arena.Workspace, g *graph.CSR, targetSize int) (*Hierarchy, error) {
	if targetSize <= 1 {
		targetSize = 100
	}
	h := &Hierarchy{Original: g}
	cur := g
	for cur.NumNodes() > targetSize && cur.NumEdges() > 0 {
		var best edgeItem
		found := false
		for u := 0; u < cur.NumNodes(); u++ {
			nbrs, wts := cur.Row(graph.Node(u))
			for i, v := range nbrs {
				if graph.Node(u) >= v {
					continue
				}
				it := edgeItem{graph.Node(u), v, wts[i]}
				if !found || it.w > best.w ||
					(it.w == best.w && (it.u < best.u || (it.u == best.u && it.v < best.v))) {
					best = it
					found = true
				}
			}
		}
		if !found {
			break
		}
		m := match.NewMatching(cur.NumNodes())
		m[best.u], m[best.v] = best.v, best.u
		lvl, err := ContractWS(ws, cur, m)
		if err != nil {
			return nil, err
		}
		lvl.Heuristic = match.HeuristicHeavyEdge
		h.Levels = append(h.Levels, lvl)
		cur = lvl.Coarse
	}
	return h, nil
}
