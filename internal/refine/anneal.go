package refine

import (
	"math"
	"math/rand"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// AnnealOptions configures AnnealCSR.
type AnnealOptions struct {
	// Iterations is the number of proposed moves (default 200·n).
	Iterations int
	// InitialTemp sets the starting temperature as a fraction of the
	// total edge weight (default 0.05).
	InitialTemp float64
	// Cooling is the geometric cooling factor applied every n proposals
	// (default 0.95).
	Cooling float64
}

// AnnealCSR refines a k-way partition of the CSR snapshot by simulated
// annealing on the same constrained objective as TabuSearchCSR: random
// single-node moves, always accepted when improving, accepted with
// probability exp(-Δ/T) when worsening, geometric cooling. The best state
// seen is restored at the end. The rng makes runs reproducible.
func AnnealCSR(csr *graph.CSR, parts []int, k int, c metrics.Constraints, opts AnnealOptions, rng *rand.Rand) (Stats, bool) {
	n := csr.NumNodes()
	if opts.Iterations <= 0 {
		opts.Iterations = 200 * n
	}
	if opts.InitialTemp <= 0 {
		opts.InitialTemp = 0.05
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.95
	}
	st := Stats{CutBefore: csrEdgeCut(csr, parts)}
	if n == 0 || k < 2 {
		st.CutAfter = st.CutBefore
		return st, csrFeasible(csr, parts, k, c)
	}
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: c})
	if err != nil {
		return st, false
	}
	penalty := penaltyUnit(csr.EdgeWT)
	bwEx, resEx, _ := s.Excess()
	cur := objective(st.CutBefore, bwEx+resEx, penalty)
	best := cur
	bestParts := append([]int(nil), parts...)
	temp := opts.InitialTemp * float64(csr.EdgeWT+1)

	for iter := 0; iter < opts.Iterations; iter++ {
		if iter > 0 && iter%n == 0 {
			temp *= opts.Cooling
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
		dObj := cd + (ed+red)*penalty
		accept := dObj <= 0
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-float64(dObj)/temp)
		}
		if !accept {
			continue
		}
		s.Move(u, to)
		cur += dObj
		st.Moves++
		if cur < best {
			best = cur
			copy(bestParts, s.Parts())
		}
	}
	copy(parts, bestParts)
	st.Passes = 1
	st.CutAfter = csrEdgeCut(csr, parts)
	return st, csrFeasible(csr, parts, k, c)
}
