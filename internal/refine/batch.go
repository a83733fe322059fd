package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pool"
	"ppnpart/internal/pstate"
)

// BatchOptions configures BatchKWay.
type BatchOptions struct {
	// MaxRounds bounds the number of gain-sweep/select/apply rounds
	// (default 64; rounds also stop when gains dry up).
	MaxRounds int
	// Workers is the gain-sweep chunk fan-out (default: the pool's
	// width). The sweep writes each node's candidate into a slot indexed
	// by the node, so any worker count produces bit-identical results.
	Workers int
	// Pool executes the sweep chunks (nil: the shared pool.Default()).
	Pool *pool.Pool
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

// Improved reports whether the pass reduced the cut.
func (s BatchStats) Improved() bool { return s.CutAfter < s.CutBefore }

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

// BatchKWay runs data-parallel batch k-way refinement on s. Each round:
//
//  1. Gain sweep: boundary vertices are scanned in chunked CSR sweeps
//     fanned over the shared worker pool; each vertex's best
//     positive-gain destination (KWayFM's gain rule: connectivity delta,
//     ties to the lowest part id) lands in a per-node slot of a pooled
//     buffer, so the sweep result is independent of the worker count and
//     chunk split. A vertex's candidate depends only on its own and its
//     neighbors' assignments, so after the first round the sweep is
//     incremental: only vertices adjacent to the previous round's moves
//     are re-scanned, and every other slot is provably still current.
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
// or MaxRounds is hit. The pass is deterministic by construction: no
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
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = opts.Pool.Workers()
	}
	const minChunk = 2048
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}

	stats := BatchStats{CutBefore: s.Cut()}

	// cand[u] = best destination + 1 (0: no candidate); gains[u] its gain.
	cand := ws.Ints.Get(n)
	gains := ws.Int64s.Get(n)
	// blocked[u]: u neighbors an accepted move this round.
	blocked := ws.Bools.Get(n)
	// dirty/dirtyList collect the nodes whose candidate slot must be
	// re-swept next round: the applied moves and their neighborhoods.
	dirty := ws.Bools.Get(n)
	dirtyList := ws.Ints.Cap(n)
	// Per-worker connectivity scratch, carved up front on the owning
	// goroutine (arena pools are single-owner; sweep tasks only write
	// their own k-slot window and their chunk's cand/gains range).
	conn := ws.Int64s.Get(workers * k)
	// quotaUsed[p] counts the round's moves into part p.
	quotaUsed := ws.Ints.Get(k)
	sel := ws.Ints.Cap(n)
	defer func() {
		ws.Ints.Put(cand)
		ws.Int64s.Put(gains)
		ws.Bools.Put(blocked)
		ws.Bools.Put(dirty)
		ws.Ints.Put(dirtyList)
		ws.Int64s.Put(conn)
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
	for round := 0; round < maxRounds; round++ {
		// (1) Chunked gain sweep over the shared pool. The first round
		// scans every node; later rounds re-scan only the dirty list
		// (previous round's moves plus their neighborhoods) — every
		// other candidate slot is a function of assignments that did not
		// change. Chunks are contiguous ranges, so every write lands in
		// a slot owned by one task.
		todo := n
		if round > 0 {
			todo = len(dirtyList)
		}
		chunk := (todo + workers - 1) / workers
		tasks := 0
		if chunk > 0 {
			tasks = (todo + chunk - 1) / chunk
		}
		dl := dirtyList
		incremental := round > 0
		opts.Pool.Run(tasks, func(w int) {
			lo := w * chunk
			hi := lo + chunk
			if hi > todo {
				hi = todo
			}
			var list []int
			if incremental {
				list = dl[lo:hi]
			}
			sweepGains(csr, pp, conn[w*k:(w+1)*k], k, lo, hi, list, cand, gains)
		})

		// Fold the sweep into the bucket ranking: round 0 inserts every
		// candidate, later rounds re-bucket only the re-swept dirty set.
		if round == 0 {
			for u := 0; u < n; u++ {
				if cand[u] != 0 {
					gb.set(u, gains[u])
				}
			}
		} else {
			for _, u := range dirtyList {
				if cand[u] != 0 {
					gb.set(u, gains[u])
				} else {
					gb.remove(u)
				}
			}
		}
		if gb.count == 0 {
			break
		}

		// Un-block for the next round (touching only what this round
		// set) and collect the dirty set: the moved nodes and everything
		// adjacent to them are the only candidate slots the next sweep
		// must recompute.
		clearBlocked := func() {
			dirtyList = dirtyList[:0]
			for _, u := range sel {
				if !dirty[u] {
					dirty[u] = true
					dirtyList = append(dirtyList, u)
				}
				adj, _ := csr.Row(graph.Node(u))
				for _, v := range adj {
					blocked[v] = false
					if !dirty[v] {
						dirty[v] = true
						dirtyList = append(dirtyList, int(v))
					}
				}
			}
			// dirty is only a dedup aid while building the list; reset it
			// so the next accepted round starts clean. The list itself
			// needs no ordering: sweep results are per-node and
			// independent of scan order.
			for _, u := range dirtyList {
				dirty[u] = false
			}
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
				to := cand[u] - 1
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
				clearBlocked()
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

// sweepGains computes each scanned node's best single-move candidate
// under KWayFM's gain rule (connectivity delta, ties to the lowest part
// id) against the current assignment. With list nil it scans nodes
// [lo, hi); otherwise it scans exactly the nodes in list (an incremental
// re-sweep). The candidate is a pure function of the node's own and its
// neighbors' assignments — per-part totals are deliberately NOT consulted
// here, the selection phase checks the caps and never-empty-a-part against
// the state — which is what makes incremental re-sweeps sound.
// conn is the task's private k-slot connectivity scratch; cand/gains
// writes stay inside the task's node set.
func sweepGains(csr *graph.CSR, parts []int, conn []int64,
	k, lo, hi int, list []int, cand []int, gains []int64) {
	for i := lo; i < hi; i++ {
		u := i
		if list != nil {
			u = list[i-lo]
		}
		cand[u] = 0
		from := parts[u]
		for i := range conn {
			conn[i] = 0
		}
		boundary := false
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			conn[parts[v]] += wts[i]
			if parts[v] != from {
				boundary = true
			}
		}
		if !boundary {
			continue
		}
		bestTo := -1
		var bestGain int64
		for to := 0; to < k; to++ {
			if to == from || conn[to] == 0 {
				continue
			}
			// bestGain starts at 0, so only strictly improving moves are
			// kept; ascending iteration breaks ties toward the lowest
			// part id — the same discipline as KWayFM.
			if gain := conn[to] - conn[from]; gain > bestGain {
				bestGain = gain
				bestTo = to
			}
		}
		if bestTo >= 0 {
			cand[u] = bestTo + 1
			gains[u] = bestGain
		}
	}
}
