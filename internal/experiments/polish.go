package experiments

import (
	"math"
	"math/rand"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// This file holds the A5 polish passes, the "more costly local search"
// strategies §II-A of the paper contrasts with FM: Tabu Search, which
// lifts FM's move-at-most-once-per-pass restriction ("a node can be
// moved different times during one iteration"), and simulated annealing,
// the canonical non-greedy hill-climber ("will sometimes accept a
// solution that is worse than the existing solution ... to avoid getting
// trapped in local minima").
//
// Both minimize the integer objective cut + excess·(EdgeWT+1), where
// excess is the bandwidth plus resource overflow: one unit of excess
// outweighs any cut difference, so every infeasible state scores worse
// than every feasible one, as in GP's goodness function. Both move
// through a pstate.State, so a candidate move costs O(deg), and both
// write the best state seen into parts whenever it improves. Neither
// reports anything: partitionPolished re-scores the result.

// The fixed A5 settings, scaled by the node count n: tabu considers up
// to 100·n moves, keeps a moved node tabu for max(7, n/10) iterations
// and stops after 4·tenure moves without a new best; annealing proposes
// 200·n moves from T₀ = 0.05·(EdgeWT+1), cooling by 0.95 every n
// proposals.
const (
	tabuMovesPerNode       = 100
	annealProposalsPerNode = 200
	annealInitialTemp      = 0.05
	annealCooling          = 0.95
)

// tabuSearch refines a k-way partition of csr under c in place: each
// iteration applies the best non-tabu single-node move by objective delta,
// even a worsening one, and marks the node tabu for the tenure
// (aspiration: a tabu move that beats the best state is allowed).
func tabuSearch(csr *graph.CSR, parts []int, k int, c metrics.Constraints) {
	n := csr.NumNodes()
	tenure := max(7, n/10)
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: c})
	if err != nil {
		return
	}
	penalty := csr.EdgeWT + 1
	bwEx, resEx, _ := s.Excess()
	cur := s.Cut() + (bwEx+resEx)*penalty
	best := cur
	tabuUntil := make([]int, n)
	sinceImprove := 0
	for iter := 1; iter <= tabuMovesPerNode*n && sinceImprove < 4*tenure; iter++ {
		// Best admissible move over all (node, target) pairs.
		var moveU graph.Node = -1
		moveTo := -1
		var moveDelta int64
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := s.Part(un)
			if s.Count(from) == 1 {
				continue
			}
			r := s.Row(un)
			for to := 0; to < k; to++ {
				if to == from {
					continue
				}
				cd, ed, red := s.RowDelta(r, un, to)
				d := cd + (ed+red)*penalty
				if tabuUntil[u] > iter && cur+d >= best {
					continue // tabu and not aspirational
				}
				if moveU < 0 || d < moveDelta {
					moveU, moveTo, moveDelta = un, to, d
				}
			}
		}
		if moveU < 0 {
			break
		}
		s.Move(moveU, moveTo)
		cur += moveDelta
		tabuUntil[moveU] = iter + tenure
		if cur < best {
			best = cur
			copy(parts, s.Parts())
			sinceImprove = 0
		} else {
			sinceImprove++
		}
	}
}

// anneal refines a k-way partition of csr under c in place by simulated
// annealing: random single-node moves, always accepted when they do not
// worsen the objective, accepted with probability exp(-Δ/T) otherwise,
// under geometric cooling. rng makes runs reproducible; it is drawn for
// the node, the target and, only for a worsening move at T > 0, the
// acceptance.
func anneal(csr *graph.CSR, parts []int, k int, c metrics.Constraints, rng *rand.Rand) {
	n := csr.NumNodes()
	if n == 0 || k < 2 {
		return
	}
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: c})
	if err != nil {
		return
	}
	penalty := csr.EdgeWT + 1
	bwEx, resEx, _ := s.Excess()
	cur := s.Cut() + (bwEx+resEx)*penalty
	best := cur
	temp := annealInitialTemp * float64(csr.EdgeWT+1)
	for iter := 0; iter < annealProposalsPerNode*n; iter++ {
		if iter > 0 && iter%n == 0 {
			temp *= annealCooling
		}
		u := graph.Node(rng.Intn(n))
		from := s.Part(u)
		if s.Count(from) == 1 {
			continue
		}
		to := rng.Intn(k - 1)
		if to >= from {
			to++
		}
		cd, ed, red := s.MoveDelta(u, to)
		d := cd + (ed+red)*penalty
		accept := d <= 0
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-float64(d)/temp)
		}
		if !accept {
			continue
		}
		s.Move(u, to)
		cur += d
		if cur < best {
			best = cur
			copy(parts, s.Parts())
		}
	}
}
