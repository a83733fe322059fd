package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// Logic replication (the RePart lever): after refinement settles an
// assignment, clone a producer node into a second partition when the
// resource headroom exists and the goodness function strictly improves —
// a copy of the producer next to its consumers deletes cut edges and
// stops the hyperedge stream forwarding to that partition outright,
// something no single-copy move can achieve. The pass is greedy steepest:
// each round trials every candidate (node, part) pair with an exact
// Replicate → Score → Undo probe on the incremental state and commits the
// best strict improvement; candidate order is ascending (node, part) and
// ties keep the first seen, so the result is deterministic for a fixed
// input regardless of pool width.

// ReplicateOptions configures the replication pass.
type ReplicateOptions struct {
	// MaxClones bounds the number of replicas created (default 32 —
	// replication buys its cut savings with silicon, so the budget stays
	// small like RePart's).
	MaxClones int
}

func (o ReplicateOptions) withDefaults() ReplicateOptions {
	if o.MaxClones <= 0 {
		o.MaxClones = 32
	}
	return o
}

// ReplicateStats reports what the replication pass achieved.
type ReplicateStats struct {
	// Clones is the number of replicas committed.
	Clones int
	// Trials is the number of candidate probes evaluated.
	Trials int
	// ScoreBefore and ScoreAfter bracket the extended goodness score;
	// the pass guarantees ScoreAfter <= ScoreBefore.
	ScoreBefore, ScoreAfter float64
	// ObjectiveBefore and ObjectiveAfter bracket cut + hyperedge
	// connectivity cost.
	ObjectiveBefore, ObjectiveAfter int64
}

// Improved reports whether any replica was committed.
func (s ReplicateStats) Improved() bool { return s.Clones > 0 }

// Replicate runs the replication pass over a settled assignment of g. The
// assignment itself is never changed — replication is an overlay — and
// the returned vector maps each node to its replica part (-1 = none).
// cfg carries the constraint set; a clone that would breach it inflates
// the score's dominant penalty and is therefore never committed. The pass
// runs once per solve, so it checks out its own workspace and CSR.
func Replicate(g *graph.Graph, parts []int, k int, cfg pstate.Config, opts ReplicateOptions) ([]int, ReplicateStats, error) {
	opts = opts.withDefaults()
	ws := arena.Get()
	defer arena.Put(ws)
	csr := g.ToCSR()
	st := ReplicateStats{}
	s, err := pstate.NewWS(ws, csr, parts, cfg)
	if err != nil {
		return nil, st, err
	}
	defer s.Release(ws)
	st.ScoreBefore = s.Score()
	st.ScoreAfter = st.ScoreBefore
	st.ObjectiveBefore = s.Objective()
	st.ObjectiveAfter = st.ObjectiveBefore
	n := csr.NumNodes()
	replicas := make([]int, n)
	for i := range replicas {
		replicas[i] = -1
	}
	if k < 2 || n == 0 {
		return replicas, st, nil
	}

	cand := ws.Bools.Get(k) // candidate destination parts of the node in hand
	defer ws.Bools.Put(cand)
	cur := st.ScoreBefore
	for st.Clones < opts.MaxClones {
		var bestU graph.Node = -1
		bestP := -1
		bestScore := cur
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			if s.Replica(un) >= 0 {
				continue // one replica per node
			}
			from := s.Part(un)
			clear(cand)
			// A copy of u helps a part that receives u's traffic without
			// holding u: the far side of each cut edge, and every part
			// still needing the stream of a net u writes.
			found := false
			adj, _ := csr.Row(un)
			for _, v := range adj {
				if pv := s.Part(v); pv != from && !cand[pv] {
					cand[pv] = true
					found = true
				}
				if rv := s.Replica(v); rv >= 0 && rv != from && !cand[rv] {
					cand[rv] = true
					found = true
				}
			}
			for _, e := range csr.IncidentHyper(un) {
				pins := csr.HyperPins(e)
				if pins[0] != un {
					continue // cloning a reader never deletes forwarding
				}
				for _, r := range pins[1:] {
					if pr := s.Part(r); pr != from && !cand[pr] {
						cand[pr] = true
						found = true
					}
					if rr := s.Replica(r); rr >= 0 && rr != from && !cand[rr] {
						cand[rr] = true
						found = true
					}
				}
			}
			if !found {
				continue
			}
			for p := 0; p < k; p++ {
				if !cand[p] {
					continue
				}
				if lim := cfg.Constraints.RmaxFor(p); lim > 0 && s.Resource(p)+csr.NodeW[u] > lim {
					continue // no headroom: the clone could only worsen the score
				}
				st.Trials++
				s.Replicate(un, p)
				sc := s.Score()
				s.Undo()
				if sc < bestScore {
					bestScore, bestU, bestP = sc, un, p
				}
			}
		}
		if bestU < 0 {
			break // no strict improvement left
		}
		s.Replicate(bestU, bestP)
		cur = bestScore
		st.Clones++
	}
	if reps := s.Replicas(); reps != nil {
		copy(replicas, reps)
	}
	st.ScoreAfter = cur
	st.ObjectiveAfter = s.Objective()
	return replicas, st, nil
}
