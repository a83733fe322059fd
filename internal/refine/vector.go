package refine

import (
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// RebalanceVector moves nodes out of partitions that overflow any
// resource kind into partitions with room in every kind, preferring moves
// with the least cut increase — the multi-resource analogue of
// RebalanceResources. Bounds are s.VectorLimit, so per-part caps apply.
// Moves go through s, which leaves the undo log empty. Returns the number
// of moves and whether every partition now fits every kind; (0, true)
// when s maintains no vector resources.
func RebalanceVector(s *pstate.State, maxPasses int) (int, bool) {
	d := s.Dims()
	if maxPasses <= 0 {
		maxPasses = 16
	}
	defer s.ResetLog()
	k := s.K
	over := func(p, kind int, add int64) bool {
		lim := s.VectorLimit(p, kind)
		return lim > 0 && s.VectorTotal(p, kind)+add > lim
	}
	overflowing := func(p int) bool {
		for kind := 0; kind < d; kind++ {
			if over(p, kind, 0) {
				return true
			}
		}
		return false
	}
	fitsAfterAdd := func(p int, row []int64) bool {
		for kind, v := range row {
			if over(p, kind, v) {
				return false
			}
		}
		return true
	}
	allFit := func() bool {
		_, _, vec := s.Excess()
		return vec == 0
	}
	// relieves reports whether moving a node with demand row out of part
	// from reduces an overflowing kind — pointless moves are never
	// considered.
	relieves := func(from int, row []int64) bool {
		for kind, v := range row {
			if v > 0 && over(from, kind, 0) {
				return true
			}
		}
		return false
	}

	moves := 0
	n := s.C.NumNodes()
	maxMoves := maxPasses * n
	for moves < maxMoves && !allFit() {
		// Globally cheapest relieving move across all overflowing parts.
		var bestU graph.Node = -1
		bestTo := -1
		var bestCost int64
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := s.Part(un)
			row := s.Demand(un)
			if !overflowing(from) || s.Count(from) == 1 || !relieves(from, row) {
				continue
			}
			conn := s.Row(un).W
			for to := 0; to < k; to++ {
				if to == from || !fitsAfterAdd(to, row) {
					continue
				}
				cost := conn[from] - conn[to]
				if bestU < 0 || cost < bestCost {
					bestU, bestTo, bestCost = un, to, cost
				}
			}
		}
		if bestU < 0 {
			break
		}
		s.Move(bestU, bestTo)
		moves++
	}
	return moves, allFit()
}
