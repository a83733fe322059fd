package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
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

// FMBisectWS runs Fiduccia–Mattheyses passes on a 2-way partition of the
// CSR snapshot, mutating parts in place; parts must hold one entry in
// {0,1} per node (anything else panics). Each pass moves every node at
// most once, always taking the highest-gain admissible move, allowing
// negative-gain moves (hill climbing), and finally rolls back to the
// best prefix seen. maxResource bounds the node-weight total of each
// side (<= 0: the only bound is that no side may be emptied); maxPasses
// <= 0 defaults to 8. Terminates when a pass yields no improvement.
//
// The passes move nodes through one K=2 pstate.State drawn from ws:
// gains start from s.Connectivity, s.Fits and s.Count decide
// admissibility, and the rollback undoes the log down to the best
// prefix. The lock table also comes from ws.
func FMBisectWS(ws *arena.Workspace, csr *graph.CSR, parts []int, maxResource int64, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	s, err := pstate.NewWS(ws, csr, parts, pstate.Config{K: 2, Constraints: metrics.Constraints{Rmax: maxResource}})
	if err != nil {
		panic("refine: FMBisectWS: " + err.Error())
	}
	n := csr.NumNodes()
	pq := newGainPQ(n)
	locked := ws.Bools.Get(n)
	st := Stats{CutBefore: s.Cut()}
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		startCut := s.Cut()
		st.Moves += fmBisectPass(s, pq, locked)
		if s.Cut() >= startCut {
			break
		}
	}
	st.CutAfter = s.Cut()
	copy(parts, s.Parts())
	s.Release(ws)
	ws.Bools.Put(locked)
	return st
}

// fmBisectPass runs one FM pass on s, leaving s at the best prefix with
// an empty undo log, and returns the moves kept. pq must be empty;
// locked is cleared here.
func fmBisectPass(s *pstate.State, pq *gainPQ, locked []bool) int {
	n := s.C.NumNodes()
	// gain(u) = external(u) - internal(u): cut reduction if u switches side.
	for u := 0; u < n; u++ {
		un := graph.Node(u)
		conn, p := s.Connectivity(un), s.Part(un)
		pq.Push(un, conn[1-p]-conn[p])
	}
	clear(locked)
	bestCut, bestMoves := s.Cut(), 0
	var skipped []graph.Node
	for pq.Len() > 0 {
		// Find the best admissible move: highest gain whose move does not
		// overflow the destination or empty the source.
		var chosen graph.Node = -1
		skipped = skipped[:0]
		for pq.Len() > 0 {
			u, _ := pq.Pop()
			if from := s.Part(u); !s.Fits(u, 1-from) || s.Count(from) == 1 {
				skipped = append(skipped, u)
				continue
			}
			chosen = u
			break
		}
		// Skipped nodes stay candidates for later (resources shift); Pop
		// leaves a node's key in place, so it returns with its gain.
		for _, v := range skipped {
			pq.Push(v, pq.gain[v])
		}
		if chosen < 0 {
			break
		}
		u := chosen
		to := 1 - s.Part(u)
		s.Move(u, to)
		locked[u] = true
		// Update neighbor gains: edge {u,v} turned internal for a
		// neighbor on `to` and external for one left behind.
		adj, wts := s.C.Row(u)
		for i, v := range adj {
			if locked[v] {
				continue
			}
			if s.Part(v) == to {
				pq.Adjust(v, -2*wts[i])
			} else {
				pq.Adjust(v, 2*wts[i])
			}
		}
		if s.Cut() < bestCut {
			bestCut, bestMoves = s.Cut(), s.Moves()
		}
	}
	// Roll back to the best prefix and leave the queue empty.
	for s.Moves() > bestMoves {
		s.Undo()
	}
	s.ResetLog()
	pq.clear()
	return bestMoves
}

// KWayFM runs greedy k-way FM refinement on s: repeated passes over the
// nodes in id order, each pass moving a node (at most once) to the
// neighbor part with the best strictly positive gain, subject to the
// destination's resource bound (s.Fits), so a big part can absorb nodes a
// small one cannot. Ties go to the lowest part id. A move never empties a
// part. Unlike 2-way FM it does not hill-climb — this mirrors the
// coarse-grained k-way refinement used in multilevel k-way partitioners.
// maxPasses <= 0 defaults to 8. Parts, counts, resources, limits and
// cut come from s, moves go through s.Move, and the undo log is left
// empty.
//
// Pass 0 evaluates every node; later passes evaluate only active nodes.
// A node is active when a neighbor moved since its last evaluation, when
// that evaluation found a strictly positive gain s.Fits refused, or when
// the never-empty guard skipped it. Any other node sees the connectivity
// of its last evaluation, which left it no positive gain a freed cap
// could admit, so it cannot move: the moves, their order and the Stats
// are those of a sweep over every node, at O(n + Σ deg(active)) per pass
// after the first.
// Connectivity is gathered sparsely into a K-slot row whose touched
// entries alone are cleared, and s.Fits is asked only of a candidate
// that would beat the best so far. The row, its touched-part list and
// the active flags come from ws.
func KWayFM(ws *arena.Workspace, s *pstate.State, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: s.Cut()}
	n := s.C.NumNodes()
	parts := s.Parts()
	conn := ws.Int64s.Get(s.K)
	touched := ws.Ints.Cap(s.K)
	active := ws.Bools.Get(n)
	for u := range active {
		active[u] = true
	}
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		moves := 0
		for u := 0; u < n; u++ {
			if !active[u] {
				continue
			}
			from := parts[u]
			if s.Count(from) == 1 {
				continue // never empty a part; stays active
			}
			active[u] = false
			un := graph.Node(u)
			adj, wts := s.C.Row(un)
			// A part enters touched when its entry is zero, so a part seen
			// only over zero-weight edges may appear more than once; that
			// costs a repeated comparison, never a different choice.
			touched = touched[:0]
			for i, v := range adj {
				p := parts[v]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += wts[i]
			}
			bestTo := -1
			var bestGain int64
			for _, to := range touched {
				// Interior nodes touch only from, so they fall through
				// here without a move.
				if to == from || conn[to] == 0 {
					continue
				}
				// bestGain starts at 0, so only strictly improving moves
				// are taken; the id comparison breaks ties toward the
				// lowest part whatever the touched order.
				gain := conn[to] - conn[from]
				if gain > bestGain || gain == bestGain && to < bestTo {
					if s.Fits(un, to) {
						bestGain, bestTo = gain, to
					} else {
						active[u] = true // a later move may make room
					}
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if bestTo >= 0 {
				s.Move(un, bestTo)
				moves++
				for _, v := range adj {
					active[v] = true
				}
			}
		}
		s.ResetLog()
		st.Moves += moves
		if moves == 0 {
			break
		}
	}
	ws.Int64s.Put(conn)
	ws.Ints.Put(touched)
	ws.Bools.Put(active)
	st.CutAfter = s.Cut()
	return st
}
