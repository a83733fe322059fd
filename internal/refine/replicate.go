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
// each round commits the strictly best (node, part) candidate; candidate
// order is ascending (node, part) and ties keep the first seen, so the
// result is deterministic for a fixed input regardless of pool width.
//
// Candidates are priced without touching the state. One sweep caches
// pstate.ReplicaDelta per candidate, and each round ranks the cache with
// pstate.ReplicaScore against the current counters and headroom — both
// read-only and bit-identical to a Replicate → Score → Undo probe. A
// candidate's delta reads only its node's row and nets, so a commit of
// (u, p) goes stale only for u, u's neighbours and the pins of u's nets;
// just those nodes are re-swept. The cost is one O(Σ deg + Σ pins) sweep
// plus a local rebuild per clone, and a round scan of O(1+D) per cached
// candidate.

// ReplicateOptions configures the replication pass.
type ReplicateOptions struct {
	// MaxClones bounds the number of replicas created (default 32 —
	// replication buys its cut savings with silicon, so the budget stays
	// small like RePart's).
	MaxClones int
}

// DefaultMaxClones is the clone budget a MaxClones of 0 selects.
const DefaultMaxClones = 32

func (o ReplicateOptions) withDefaults() ReplicateOptions {
	if o.MaxClones <= 0 {
		o.MaxClones = DefaultMaxClones
	}
	return o
}

// ReplicateStats reports what the replication pass achieved.
type ReplicateStats struct {
	// Clones is the number of replicas committed.
	Clones int
	// Trials is the number of candidate deltas evaluated: one per
	// candidate in the initial sweep, plus one per candidate of every node
	// re-swept after a commit.
	Trials int
	// ScoreBefore and ScoreAfter bracket the extended goodness score;
	// the pass guarantees ScoreAfter <= ScoreBefore.
	ScoreBefore, ScoreAfter float64
	// ObjectiveBefore and ObjectiveAfter bracket cut + hyperedge
	// connectivity cost.
	ObjectiveBefore, ObjectiveAfter int64
}

// Replicate runs the replication pass over a settled assignment of g. The
// assignment itself is never changed — replication is an overlay — and
// the returned vector maps each node to its replica part (-1 = none).
// cfg carries the constraint set; a clone that would breach it inflates
// the score's dominant penalty and is therefore never committed. The pass
// runs once per solve, so it checks out its own workspace.
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
	// The candidate cache is one append-only log of (part, delta) runs,
	// one run per node: runAt[u] and runLen[u] locate u's current run, and
	// a re-swept node appends a fresh one. Replicated nodes keep an empty
	// run. swept stamps the nodes already re-swept for the current commit.
	logPart := ws.Int32s.Cap(2 * n)
	logDelta := ws.Int64s.Cap(2 * n)
	runAt := ws.Int32s.Get(n)
	runLen := ws.Int32s.Get(n)
	swept := ws.Int32s.Get(n)
	defer func() {
		ws.Int32s.Put(logPart)
		ws.Int64s.Put(logDelta)
		ws.Int32s.Put(runAt)
		ws.Int32s.Put(runLen)
		ws.Int32s.Put(swept)
	}()
	sweep := func(u graph.Node) {
		runAt[u] = int32(len(logPart))
		runLen[u] = 0
		if s.Replica(u) >= 0 {
			return // one replica per node
		}
		// A copy of u helps a part that receives u's traffic without
		// holding u: the far side of each cut edge, and every part still
		// needing the stream of a net u writes.
		clear(cand)
		adj, _ := csr.Row(u)
		for _, v := range adj {
			cand[s.Part(v)] = true
			if rv := s.Replica(v); rv >= 0 {
				cand[rv] = true
			}
		}
		for _, e := range csr.IncidentHyper(u) {
			pins := csr.HyperPins(e)
			if pins[0] != u {
				continue // cloning a reader never deletes forwarding
			}
			for _, r := range pins[1:] {
				cand[s.Part(r)] = true
				if rr := s.Replica(r); rr >= 0 {
					cand[rr] = true
				}
			}
		}
		cand[s.Part(u)] = false
		for p := 0; p < k; p++ {
			if cand[p] {
				logPart = append(logPart, int32(p))
				logDelta = append(logDelta, s.ReplicaDelta(u, p))
			}
		}
		runLen[u] = int32(len(logPart)) - runAt[u]
		st.Trials += int(runLen[u])
	}
	var stamp int32
	resweep := func(u graph.Node) {
		if swept[u] != stamp {
			swept[u] = stamp
			sweep(u)
		}
	}
	for u := 0; u < n; u++ {
		sweep(graph.Node(u))
	}

	cur := st.ScoreBefore
	for {
		var bestU graph.Node = -1
		bestP := -1
		bestScore := cur
		for u := graph.Node(0); int(u) < n; u++ {
			for i := runAt[u]; i < runAt[u]+runLen[u]; i++ {
				p := int(logPart[i])
				if !s.Fits(u, p) {
					continue // no headroom: the clone could only worsen the score
				}
				if sc := s.ReplicaScore(u, p, logDelta[i]); sc < bestScore {
					bestScore, bestU, bestP = sc, u, p
				}
			}
		}
		if bestU < 0 {
			break // no strict improvement left
		}
		s.Replicate(bestU, bestP)
		cur = bestScore
		st.Clones++
		if st.Clones == opts.MaxClones {
			break
		}
		// Only deltas that read bestU's replica went stale: bestU's own,
		// its neighbours' (cut relief, candidate parts) and those of every
		// pin of its nets (net prices, candidate parts).
		stamp++
		resweep(bestU)
		adj, _ := csr.Row(bestU)
		for _, v := range adj {
			resweep(v)
		}
		for _, e := range csr.IncidentHyper(bestU) {
			for _, r := range csr.HyperPins(e) {
				resweep(r)
			}
		}
	}
	if reps := s.Replicas(); reps != nil {
		copy(replicas, reps)
	}
	st.ScoreAfter = cur
	st.ObjectiveAfter = s.Objective()
	return replicas, st, nil
}
