package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// Stats summarizes what a refinement pass achieved.
type Stats struct {
	// Passes is the number of full passes executed.
	Passes int
	// Moves is the number of node moves kept (after rollback).
	Moves int
	// CutBefore and CutAfter bracket the global edge cut.
	CutBefore, CutAfter int64
}

// Improved reports whether the refinement reduced the cut.
func (s Stats) Improved() bool { return s.CutAfter < s.CutBefore }

// FMBisectWS runs Fiduccia–Mattheyses passes on a 2-way partition
// (parts[u] ∈ {0,1}) of the CSR snapshot, mutating parts in place. Each
// pass moves every node at most once, always taking the highest-gain
// admissible move, allowing negative-gain moves (hill climbing), and
// finally rolls back to the best prefix seen. maxResource bounds the
// node-weight total of each side (<= 0: the only bound is that no side
// may be emptied); maxPasses <= 0 defaults to 8. Terminates when a pass
// yields no improvement. The per-pass gain and lock tables come from ws.
func FMBisectWS(ws *arena.Workspace, csr *graph.CSR, parts []int, maxResource int64, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: csrEdgeCut(csr, parts)}
	cur := st.CutBefore
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		improved, newCut, kept := fmBisectPass(ws, csr, parts, maxResource, cur)
		cur = newCut
		st.Moves += kept
		if !improved {
			break
		}
	}
	st.CutAfter = cur
	return st
}

// fmBisectPass runs one FM pass. Returns (improved, cut after rollback,
// moves kept).
func fmBisectPass(ws *arena.Workspace, csr *graph.CSR, parts []int, maxResource int64, startCut int64) (bool, int64, int) {
	n := csr.NumNodes()
	// Side resource totals.
	var res [2]int64
	var cnt [2]int
	for u := 0; u < n; u++ {
		res[parts[u]] += csr.NodeW[u]
		cnt[parts[u]]++
	}
	// gain(u) = external(u) - internal(u): cut reduction if u switches side.
	pq := newGainPQ(n)
	gains := ws.Int64s.Get(n)
	defer ws.Int64s.Put(gains)
	for u := 0; u < n; u++ {
		var ext, int_ int64
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			if parts[v] == parts[u] {
				int_ += wts[i]
			} else {
				ext += wts[i]
			}
		}
		gains[u] = ext - int_
		pq.Push(graph.Node(u), gains[u])
	}
	locked := ws.Bools.Get(n)
	defer ws.Bools.Put(locked)
	type move struct {
		node graph.Node
		from int
	}
	var seq []move
	cut := startCut
	bestCut := startCut
	bestLen := 0

	for pq.Len() > 0 {
		// Find the best admissible move: highest gain whose move does not
		// overflow the destination or empty the source.
		var chosen graph.Node = -1
		var skipped []graph.Node
		for pq.Len() > 0 {
			u, _ := pq.Pop()
			from := parts[u]
			to := 1 - from
			w := csr.NodeW[u]
			overflow := maxResource > 0 && res[to]+w > maxResource
			empties := cnt[from] == 1
			if overflow || empties {
				skipped = append(skipped, u)
				continue
			}
			chosen = u
			break
		}
		// Skipped nodes stay candidates for later (resources shift).
		for _, s := range skipped {
			pq.Push(s, gains[s])
		}
		if chosen < 0 {
			break
		}
		u := chosen
		from := parts[u]
		to := 1 - from
		cut -= gains[u]
		parts[u] = to
		res[from] -= csr.NodeW[u]
		res[to] += csr.NodeW[u]
		cnt[from]--
		cnt[to]++
		locked[u] = true
		seq = append(seq, move{u, from})
		// Update neighbor gains: for neighbor v on side s, edge {u,v}
		// changed from internal↔external.
		adj, wts := csr.Row(u)
		for i, v := range adj {
			if locked[v] {
				continue
			}
			var delta int64
			if parts[v] == to {
				// Edge was external to v (u was opposite), now internal.
				delta = -2 * wts[i]
			} else {
				// Edge was internal to v's side? v is on `from`; u left it.
				delta = 2 * wts[i]
			}
			gains[v] += delta
			pq.Adjust(v, delta)
		}
		if cut < bestCut {
			bestCut = cut
			bestLen = len(seq)
		}
	}
	// Roll back to the best prefix.
	for i := len(seq) - 1; i >= bestLen; i-- {
		parts[seq[i].node] = seq[i].from
	}
	return bestCut < startCut, bestCut, bestLen
}

// KWayFM runs greedy k-way FM refinement on s: repeated passes over the
// nodes, each pass moving a node (at most once) to the neighbor part with
// the best strictly positive gain, subject to the destination's resource
// bound (s.Fits), so a big part can absorb nodes a small one cannot. A
// move never empties a part. Unlike 2-way FM it does not hill-climb —
// this mirrors the coarse-grained k-way refinement used in multilevel
// k-way partitioners. maxPasses <= 0 defaults to 8. Parts, counts,
// resources, limits and connectivity all come from s, moves go through
// s.Move, and the undo log is left empty.
func KWayFM(s *pstate.State, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: s.Cut()}
	n := s.C.NumNodes()
	parts := s.Parts()
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		moves := 0
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := parts[u]
			if s.Count(from) == 1 {
				continue // never empty a part
			}
			conn := s.Connectivity(un)
			bestTo := -1
			var bestGain int64
			for to := range conn {
				// Interior nodes have no connectivity outside from, so
				// they fall through here without a move.
				if to == from || conn[to] == 0 || !s.Fits(un, to) {
					continue
				}
				// bestGain starts at 0, so only strictly improving moves
				// are taken; ascending iteration breaks ties toward the
				// lowest part id.
				if gain := conn[to] - conn[from]; gain > bestGain {
					bestGain = gain
					bestTo = to
				}
			}
			if bestTo >= 0 {
				s.Move(un, bestTo)
				moves++
			}
		}
		s.ResetLog()
		st.Moves += moves
		if moves == 0 {
			break
		}
	}
	st.CutAfter = s.Cut()
	return st
}
