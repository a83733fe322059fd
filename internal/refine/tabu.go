package refine

import (
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// This file implements the "more costly local search" strategies §II-A of
// the paper contrasts with FM: Tabu Search, which lifts FM's
// move-at-most-once-per-pass restriction ("a node can be moved different
// times during one iteration"), and simulated annealing, the canonical
// non-greedy hill-climber ("will sometimes accept a solution that is
// worse than the existing solution ... to avoid getting trapped in local
// minima"). Both optimize the same constrained objective as GP's
// goodness function: feasibility first, cut second. Both read the graph
// through the shared incremental partition state (internal/pstate), so a
// candidate move costs O(deg + K) rather than a fresh matrix rebuild.

// TabuOptions configures TabuSearchCSR.
type TabuOptions struct {
	// Iterations bounds the number of moves considered (default 100·n).
	Iterations int
	// Tenure is how many iterations a moved node stays tabu (default
	// max(7, n/10)).
	Tenure int
	// Patience stops the search after this many non-improving moves
	// (default 4·Tenure).
	Patience int
}

// penaltyUnit returns the weight that makes one unit of constraint excess
// dominate any possible cut difference.
func penaltyUnit(totalEdgeWeight int64) int64 {
	return totalEdgeWeight + 1
}

// objective scores a state from its cut and total constraint excess:
// lower is better, and any infeasible state scores worse than any
// feasible one (the integer analogue of metrics.Goodness).
func objective(cut, excess, penalty int64) int64 {
	return cut + excess*penalty
}

// TabuSearchCSR refines a k-way partition of the CSR snapshot under the
// constraints: each iteration applies the best non-tabu single-node move
// (by objective delta, even if worsening), marks the node tabu for Tenure
// iterations (aspiration: a tabu move that improves the best-known state
// is allowed), and finally restores the best state seen. Returns Stats on
// the cut plus whether the final state is feasible.
func TabuSearchCSR(csr *graph.CSR, parts []int, k int, c metrics.Constraints, opts TabuOptions) (Stats, bool) {
	n := csr.NumNodes()
	if opts.Iterations <= 0 {
		opts.Iterations = 100 * n
	}
	if opts.Tenure <= 0 {
		opts.Tenure = n / 10
		if opts.Tenure < 7 {
			opts.Tenure = 7
		}
	}
	if opts.Patience <= 0 {
		opts.Patience = 4 * opts.Tenure
	}
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: c})
	if err != nil {
		return Stats{}, false
	}
	st := Stats{CutBefore: s.Cut()}
	penalty := penaltyUnit(csr.EdgeWT)
	bwEx, resEx, _ := s.Excess()
	cur := objective(s.Cut(), bwEx+resEx, penalty)
	best := cur
	bestParts := append([]int(nil), parts...)
	tabuUntil := make([]int, n)
	sinceImprove := 0

	for iter := 1; iter <= opts.Iterations && sinceImprove < opts.Patience; iter++ {
		// Best admissible move over all (node, target) pairs.
		var moveU graph.Node = -1
		moveTo := -1
		var moveDeltaObj int64
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := s.Part(un)
			if s.Count(from) == 1 {
				continue
			}
			for to := 0; to < k; to++ {
				if to == from {
					continue
				}
				cd, ed, red := s.MoveDelta(un, to)
				dObj := cd + (ed+red)*penalty
				isTabu := tabuUntil[u] > iter
				if isTabu && cur+dObj >= best {
					continue // tabu and not aspirational
				}
				if moveU < 0 || dObj < moveDeltaObj {
					moveU, moveTo, moveDeltaObj = un, to, dObj
				}
			}
		}
		if moveU < 0 {
			break
		}
		s.Move(moveU, moveTo)
		cur += moveDeltaObj
		tabuUntil[moveU] = iter + opts.Tenure
		st.Moves++
		if cur < best {
			best = cur
			copy(bestParts, s.Parts())
			sinceImprove = 0
		} else {
			sinceImprove++
		}
	}
	copy(parts, bestParts)
	st.Passes = 1
	// The best state's cut: rebuild the maintained state at bestParts by
	// undoing past the best point is not tracked; recompute from CSR.
	st.CutAfter = csrEdgeCut(csr, parts)
	return st, csrFeasible(csr, parts, k, c)
}

// csrEdgeCut is metrics.EdgeCut on a CSR snapshot.
func csrEdgeCut(csr *graph.CSR, parts []int) int64 {
	var cut int64
	n := csr.NumNodes()
	for u := 0; u < n; u++ {
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			if graph.Node(u) < v && parts[u] != parts[v] {
				cut += wts[i]
			}
		}
	}
	return cut
}

// csrFeasible checks both scalar constraints on a CSR snapshot in one
// adjacency sweep.
func csrFeasible(csr *graph.CSR, parts []int, k int, c metrics.Constraints) bool {
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: c})
	if err != nil {
		return false
	}
	return s.Feasible()
}
