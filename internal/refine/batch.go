package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// batchMaxRounds bounds the gain-sweep/select/apply rounds of one
// BatchKWay pass; rounds also stop when gains dry up.
const batchMaxRounds = 64

// BatchOptions configures BatchKWay.
type BatchOptions struct {
	// Record enables RoundSizes/RoundGains/RoundCands/RoundQuotas capture
	// (trace support); off, the pass allocates nothing beyond the pooled
	// workspace buffers.
	Record bool
	// PreApply, when non-nil, runs immediately before a round's first
	// selected move is applied, with the round's candidate count. It is
	// the failure-injection boundary: a panic here propagates with the
	// round's moves not yet applied to the state.
	PreApply func(round, cands int)
	// RoundHook, when non-nil, observes the state right after a round's
	// batch has been applied, before the accept/undo decision.
	// Differential tests use it to bit-compare the maintained quantities
	// against a from-scratch metrics recompute.
	RoundHook func(round int, st *pstate.State)
}

// BatchStats summarizes one batch refinement pass.
type BatchStats struct {
	// Rounds is the number of accepted move rounds; Moves totals their
	// batch sizes.
	Rounds int
	Moves  int
	// RoundSizes/RoundGains are the per-round batch sizes and summed cut
	// gains (only with BatchOptions.Record).
	RoundSizes []int
	RoundGains []int64
	// RoundCands/RoundQuotas are the per-round candidate counts and
	// effective per-part quotas (only with Record): the round's accept
	// rate — which drives the adaptive quota — is
	// RoundSizes[i]/RoundCands[i].
	RoundCands  []int
	RoundQuotas []int
	// CutBefore and CutAfter bracket the global edge cut.
	CutBefore, CutAfter int64
}

// batchBucketsKey caches the pass's gainBuckets on the workspace so
// repeated levels and cycles reuse the same bucket storage.
type batchBucketsKey struct{}

func batchBuckets(ws *arena.Workspace) *gainBuckets {
	if gb, _ := ws.Ext(batchBucketsKey{}).(*gainBuckets); gb != nil {
		return gb
	}
	gb := &gainBuckets{}
	ws.SetExt(batchBucketsKey{}, gb)
	return gb
}

// BatchKWay runs batch k-way refinement on s. Each round:
//
//  1. Gain sweep: a serial scan in node order records each boundary
//     vertex's best positive-gain destination (bestGain, KWayFM's rule:
//     connectivity delta, ties to the lowest part id) in a per-node slot
//     of a pooled buffer. A vertex's candidate depends only on its own
//     and its neighbors' assignments, so after the first round the sweep
//     is incremental: only vertices flagged dirty by the previous
//     round's moves (the moved vertices and their neighbors) are
//     re-scanned, and every other slot is provably still current.
//  2. Conflict-free selection and apply: candidates are held in an
//     incremental gain-bucket ranking (gainBuckets: log2-quantized
//     buckets, exact (gain desc, node asc) order within and across
//     buckets) that is re-bucketed only for the dirty set between
//     rounds, and greedily accepted under a per-part quota, the
//     destination's own resource bound (s.Fits), a never-empty-a-part
//     check, and an independence rule — accepting a vertex blocks all
//     its neighbors for the round. Each accepted move is applied to s at
//     once, so the cap and count checks of later candidates see it.
//     Independence makes the pre-computed gains exactly additive: no
//     accepted move can invalidate another's gain. The quota divisor
//     adapts to the previous round's accept rate within [K, 4K] (round 0
//     uses the classic candidates/2K).
//  3. Check: the round is kept only if the state's feasibility-first
//     score improved (every constraint re-checked on the applied state,
//     not the candidates). A rejected round under a loosened quota is
//     undone and retried once at the default divisor; a rejected round at
//     the default divisor is undone move-for-move and ends the pass.
//
// Rounds repeat until gains dry up, a round fails the applied-state check,
// or batchMaxRounds is hit. The pass is deterministic by construction: no
// coloring, no RNG, index-ordered tie-breaks everywhere. The undo log is
// reset on entry and left empty.
func BatchKWay(ws *arena.Workspace, s *pstate.State, opts BatchOptions) BatchStats {
	s.ResetLog()
	csr := s.C
	n := csr.NumNodes()
	k := s.K
	if n == 0 || k <= 1 {
		return BatchStats{}
	}
	stats := BatchStats{CutBefore: s.Cut()}

	// cand[u] is the best destination and gains[u] its gain, for the
	// candidates the buckets hold.
	cand := ws.Ints.Get(n)
	gains := ws.Int64s.Get(n)
	// blocked[u]: u neighbors an accepted move this round.
	blocked := ws.Bools.Get(n)
	// dirty[u]: u's candidate slot must be re-swept next round (the
	// applied moves and their neighborhoods; every node before round 0).
	dirty := ws.Bools.Get(n)
	for u := range dirty {
		dirty[u] = true
	}
	// quotaUsed[p] counts the round's moves into part p.
	quotaUsed := ws.Ints.Get(k)
	sel := ws.Ints.Cap(n)
	defer func() {
		ws.Ints.Put(cand)
		ws.Int64s.Put(gains)
		ws.Bools.Put(blocked)
		ws.Bools.Put(dirty)
		ws.Ints.Put(quotaUsed)
		ws.Ints.Put(sel)
	}()

	gb := batchBuckets(ws)
	gb.reset(n)

	pp := s.Parts()
	prevScore := s.Score()
	// quotaDiv is the adaptive per-part quota divisor: quota =
	// max(1, candidates/quotaDiv), starting at the classic 2K and
	// adapted within [K, 4K] by each accepted round's observed accept
	// rate.
	quotaDiv := 2 * k
rounds:
	for round := 0; round < batchMaxRounds; round++ {
		// (1) Gain sweep of the dirty nodes, folded into the bucket
		// ranking: round 0 sweeps every node, later rounds only the
		// previous round's moves plus their neighborhoods — every other
		// candidate slot is a function of assignments that did not
		// change. Scanning the flags in node order, not a list of them,
		// reads the CSR rows front to back and hands the buckets sorted
		// runs, which saves more than the O(n) flag scan per round costs.
		for u, d := range dirty {
			if !d {
				continue
			}
			dirty[u] = false
			// The candidate is a pure function of u's and its neighbors'
			// assignments — the caps and the never-empty check wait for
			// the selection, against the state — which is what makes the
			// incremental re-sweep sound.
			if to, gain, _ := bestGain(s.Row(graph.Node(u)), pp[u], nil); to >= 0 {
				cand[u], gains[u] = to, gain
				gb.set(u, gain)
			} else {
				gb.remove(u)
			}
		}
		if gb.count == 0 {
			break
		}

		for {
			// (2) Deterministic conflict-free selection over the bucket
			// scan (exact (gain desc, node asc) order), applying each
			// accepted move as it is selected. The selected batch is an
			// independent set — accepting a vertex blocked its whole
			// neighborhood — so every move's maintained deltas depend
			// only on assignments no other selected move touches, and
			// the caps and counts the next candidate is checked against
			// are exactly the state's.
			quota := gb.count / quotaDiv
			if quota < 1 {
				quota = 1
			}
			clear(quotaUsed)
			sel = sel[:0]
			var roundGain int64
			gb.scan(func(u int) {
				if blocked[u] {
					return
				}
				un := graph.Node(u)
				to := cand[u]
				if quotaUsed[to] >= quota || s.Count(pp[u]) == 1 || !s.Fits(un, to) {
					return
				}
				if len(sel) == 0 && opts.PreApply != nil {
					opts.PreApply(round, gb.count)
				}
				sel = append(sel, u)
				quotaUsed[to]++
				roundGain += gains[u]
				s.Move(un, to)
				adj, _ := csr.Row(un)
				for _, v := range adj {
					blocked[v] = true
				}
			})
			if len(sel) == 0 {
				break rounds
			}

			// (3) Re-check the feasibility-first score on the applied
			// state.
			if opts.RoundHook != nil {
				opts.RoundHook(round, s)
			}
			if score := s.Score(); score < prevScore {
				prevScore = score
				s.ResetLog()
				stats.Rounds++
				stats.Moves += len(sel)
				if opts.Record {
					stats.RoundSizes = append(stats.RoundSizes, len(sel))
					stats.RoundGains = append(stats.RoundGains, roundGain)
					stats.RoundCands = append(stats.RoundCands, gb.count)
					stats.RoundQuotas = append(stats.RoundQuotas, quota)
				}
				// Adapt the next round's quota to this round's accept
				// rate: a quarter or more of the candidates landing means
				// the quota is the binding constraint (loosen toward K);
				// under ~3% means blocking dominates and big quotas only
				// risk rejected rounds (tighten toward 4K).
				if len(sel)*4 >= gb.count {
					if quotaDiv > k {
						quotaDiv /= 2
						if quotaDiv < k {
							quotaDiv = k
						}
					}
				} else if len(sel)*32 < gb.count {
					if quotaDiv < 4*k {
						quotaDiv *= 2
						if quotaDiv > 4*k {
							quotaDiv = 4 * k
						}
					}
				}
				// Un-block for the next round (touching only what this
				// round set) and mark the moved nodes and their
				// neighborhoods for the next sweep.
				for _, u := range sel {
					dirty[u] = true
					adj, _ := csr.Row(graph.Node(u))
					for _, v := range adj {
						blocked[v] = false
						dirty[v] = true
					}
				}
				continue rounds
			}
			// The independent cut gains were positive, but the applied
			// state says the constraint excesses ate them: drop the
			// round.
			for s.Undo() {
			}
			if quotaDiv != 2*k {
				// The adaptively sized batch overshot the applied-state
				// check; un-block this selection and retry once at the
				// default divisor before ending the pass, so adaptation
				// can never cost quality against the classic quota.
				quotaDiv = 2 * k
				for _, u := range sel {
					adj, _ := csr.Row(graph.Node(u))
					for _, v := range adj {
						blocked[v] = false
					}
				}
				continue
			}
			break rounds
		}
	}
	stats.CutAfter = s.Cut()
	return stats
}
