package refine

import (
	"math"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// BandwidthStats reports the outcome of a bandwidth-repair run.
type BandwidthStats struct {
	// Moves is the number of node moves applied.
	Moves int
	// Passes is the number of repair sweeps executed.
	Passes int
	// ExcessBefore and ExcessAfter are the summed pairwise-bandwidth
	// excesses over Bmax before and after the run.
	ExcessBefore, ExcessAfter int64
	// Feasible reports whether every pair now meets Bmax.
	Feasible bool
}

// RepairBandwidth greedily moves boundary nodes between parts to drive
// every pairwise bandwidth under s.Bmax(), while respecting the
// destination part's resource bound (s.Fits) (the paper's FM-based
// bandwidth-repair step of §IV-B/§IV-C: "Partitions will be changed and
// nodes will move between partitions as far as constraints met"). Each
// pass considers all nodes incident to an over-budget pair and applies
// the move with the best (excess reduction, cut reduction) lexicographic
// gain; a node moves at most once per pass. Stops when feasible (at once
// when s has no Bmax), when a pass makes no progress, or after maxPasses
// (default 16). A candidate node's row is gathered once, at its first
// target that fits, and priced for every target with s.RowDelta. Moves go through s, which leaves the
// undo log empty; the per-pass moved set comes from ws.
func RepairBandwidth(ws *arena.Workspace, s *pstate.State, maxPasses int) BandwidthStats {
	st := BandwidthStats{}
	if maxPasses <= 0 {
		maxPasses = 16
	}
	st.ExcessBefore, _, _ = s.Excess()
	st.ExcessAfter = st.ExcessBefore
	if st.ExcessBefore == 0 {
		st.Feasible = true
		return st
	}
	defer s.ResetLog()
	bmax := s.Bmax()
	k := s.K
	n := s.C.NumNodes()
	moved := ws.Bools.Get(n)
	defer ws.Bools.Put(moved)
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		if pass > 0 {
			clear(moved)
		}
		progressed := false
		for {
			// Best lexicographic (excess reduction, cut reduction) move over
			// all nodes incident to a violating pair.
			var bestU graph.Node = -1
			bestTo := -1
			var bestExcess, bestCut int64
			for u := 0; u < n; u++ {
				if moved[u] {
					continue
				}
				un := graph.Node(u)
				from := s.Part(un)
				if s.Count(from) == 1 {
					continue
				}
				// Is u on a violating pair's boundary?
				touches := false
				adj, _ := s.C.Row(un)
				for _, v := range adj {
					p := s.Part(v)
					if p != from && s.Bandwidth(from, p) > bmax {
						touches = true
						break
					}
				}
				if !touches {
					continue
				}
				var r *pstate.Row // gathered at the first target that fits
				for to := 0; to < k; to++ {
					if to == from || !s.Fits(un, to) {
						continue
					}
					if r == nil {
						r = s.Row(un)
					}
					cd, ed, _ := s.RowDelta(r, un, to)
					if ed < bestExcess || (ed == bestExcess && ed < 0 && cd < bestCut) {
						bestU, bestTo, bestExcess, bestCut = un, to, ed, cd
					}
				}
			}
			if bestU < 0 || bestExcess >= 0 {
				break
			}
			s.Move(bestU, bestTo)
			moved[bestU] = true
			st.Moves++
			progressed = true
			st.ExcessAfter += bestExcess
			if st.ExcessAfter == 0 {
				st.Feasible = true
				return st
			}
		}
		if !progressed {
			break
		}
	}
	st.ExcessAfter, _, _ = s.Excess()
	st.Feasible = st.ExcessAfter == 0
	return st
}

// RebalanceResources moves nodes out of parts whose resource total
// exceeds their bound s.Limit(p) into the part with the most free space,
// preferring moves that increase the cut least. It is the repair used
// after the greedy initial partitioning when forced placement overfilled a
// part. A part with no active bound is never overfull and accepts any
// node. Stops when all parts fit, when stuck, or after maxPasses (default
// 16). Returns the number of moves applied and whether all parts now fit;
// (0, true) when no part has an active bound. Moves go through s, which
// leaves the undo log empty.
func RebalanceResources(s *pstate.State, maxPasses int) (int, bool) {
	k := s.K
	if maxPasses <= 0 {
		maxPasses = 16
	}
	defer s.ResetLog()
	fits := func() bool {
		_, res, _ := s.Excess()
		return res == 0
	}
	n := s.C.NumNodes()
	moves := 0
	for pass := 0; pass < maxPasses && !fits(); pass++ {
		progressed := false
		for u := 0; u < n && !fits(); u++ {
			un := graph.Node(u)
			from := s.Part(un)
			if lim := s.Limit(from); lim <= 0 || s.Resource(from) <= lim || s.Count(from) == 1 {
				continue
			}
			w := s.C.NodeW[u]
			conn := s.Row(un).W
			// Choose the destination that fits and costs the least cut,
			// breaking ties toward the most free space.
			bestTo := -1
			var bestCost int64
			var bestFree int64
			for to := 0; to < k; to++ {
				if to == from || !s.Fits(un, to) {
					continue
				}
				cost := conn[from] - conn[to]
				free := int64(math.MaxInt64)
				if tl := s.Limit(to); tl > 0 {
					free = tl - (s.Resource(to) + w)
				}
				if bestTo < 0 || cost < bestCost || (cost == bestCost && free > bestFree) {
					bestTo, bestCost, bestFree = to, cost, free
				}
			}
			if bestTo < 0 {
				continue
			}
			s.Move(un, bestTo)
			moves++
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return moves, fits()
}
