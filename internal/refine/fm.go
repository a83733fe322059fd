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
// gains start from the state's connectivity row, s.Fits and s.Count decide
// admissibility, and the rollback undoes the log down to the best
// prefix. The lock table and the gain queue also come from ws.
func FMBisectWS(ws *arena.Workspace, csr *graph.CSR, parts []int, maxResource int64, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	s, err := pstate.NewWS(ws, csr, parts, pstate.Config{K: 2, Constraints: metrics.Constraints{Rmax: maxResource}})
	if err != nil {
		panic("refine: FMBisectWS: " + err.Error())
	}
	n := csr.NumNodes()
	pq := NewGainQueue(ws, n)
	locked := ws.Bools.Get(n)
	st := Stats{CutBefore: s.Cut()}
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		startCut := s.Cut()
		st.Moves += fmBisectPass(s, &pq, locked)
		if s.Cut() >= startCut {
			break
		}
	}
	st.CutAfter = s.Cut()
	copy(parts, s.Parts())
	s.Release(ws)
	pq.Release(ws)
	ws.Bools.Put(locked)
	return st
}

// fmBisectPass runs one FM pass on s, leaving s at the best prefix with
// an empty undo log, and returns the moves kept. pq must be empty;
// locked is cleared here.
func fmBisectPass(s *pstate.State, pq *GainQueue, locked []bool) int {
	n := s.C.NumNodes()
	// gain(u) = external(u) - internal(u): cut reduction if u switches side.
	for u := 0; u < n; u++ {
		un := graph.Node(u)
		conn, p := s.Row(un).W, s.Part(un)
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
// after the first. The choice is bestGain over the state's sparse
// connectivity row, which asks s.Fits only of a candidate that would beat
// the best so far. The active flags come from ws.
func KWayFM(ws *arena.Workspace, s *pstate.State, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st := Stats{CutBefore: s.Cut()}
	n := s.C.NumNodes()
	parts := s.Parts()
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
			un := graph.Node(u)
			to, _, refused := bestGain(s.Row(un), from, func(to int) bool { return s.Fits(un, to) })
			active[u] = refused // a later move may make room
			if to >= 0 {
				s.Move(un, to)
				moves++
				adj, _ := s.C.Row(un)
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
	ws.Bools.Put(active)
	st.CutAfter = s.Cut()
	return st
}

// bestGain is the k-way move rule KWayFM and BatchKWay share: among the
// parts r lists, the destination whose gain r.W[to] − r.W[from] is
// strictly positive and largest, ties to the lowest part whatever the
// list order, and that gain; -1 when no move gains. admit, when non-nil,
// is asked only of a part that would beat the best so far, and refused
// reports whether it turned one down.
func bestGain(r *pstate.Row, from int, admit func(to int) bool) (best int, gain int64, refused bool) {
	best = -1
	for _, to := range r.Parts {
		g := r.W[to] - r.W[from]
		if to == from || g < gain || g == gain && (best < 0 || to > best) {
			continue
		}
		if admit != nil && !admit(to) {
			refused = true
			continue
		}
		best, gain = to, g
	}
	return best, gain, refused
}
