package pstate

import "ppnpart/internal/graph"

// Hyperedge connectivity and logic-replication maintenance.
//
// When the CSR carries hyperedges (one writer, many readers — a PPN
// channel's fanout; finest level only), the State additionally maintains
// per-net pin counts Φ[e][p] and the connectivity cost
//
//	hcut = Σ_e w_e · (λ_e − 1),   λ_e = |{p : Φ[e][p] > 0}|
//
// under Move/Undo: a move only touches the Φ entries of the nets incident
// to the moved node, so the cost stays O(inc(u)) on top of the pairwise
// O(deg) update. The arithmetic mirrors metrics.HyperCut exactly.
//
// Replication is a terminal overlay on a settled assignment: Replicate
// clones a node into a second part (RePart-style logic replication),
// after which an edge counts as cut only when no part holds copies of
// both endpoints, and a net pays for each part that holds a reader copy
// but no writer copy (metrics.ReplicatedHyperCut). Because the λ-based
// incremental maintenance assumes one copy per node, Move panics while
// replicas exist; the shared undo log orders replications after moves, so
// Undo always dissolves the overlay before revisiting moves. The pairwise
// bandwidth matrix intentionally keeps its home-part contributions under
// replication — the Bmax verdict never loosens by cloning, so a replica
// can only be accepted on its cut/connectivity merit.
//
// Two read-only queries price a clone without committing it:
// ReplicaDelta(u, p) is the Objective change of Replicate(u, p), read off
// u's row and u's nets, and ReplicaScore(u, p, delta) is the Score the
// clone would leave, from the maintained counters plus the O(1+D) excess
// change of charging u to p. Together they equal Replicate → Score → Undo
// bit for bit without touching the state (the fuzz target checks this).

// initHyper (re)builds the hyperedge state from the CSR snapshot; cleared
// when the graph carries no hyperedges (recycled States and contracted
// levels must not inherit a previous graph's nets).
func (s *State) initHyper(c *graph.CSR) {
	s.hcut = 0
	s.hyper = c.NumHyperEdges() > 0
	if !s.hyper {
		return
	}
	k := s.K
	nh := c.NumHyperEdges()
	if cap(s.hphi) < nh*k {
		s.hphi = make([]int32, nh*k)
	} else {
		s.hphi = s.hphi[:nh*k]
		clear(s.hphi)
	}
	s.hcost = grow64(s.hcost, nh)
	for e := 0; e < nh; e++ {
		base := e * k
		lam := int64(0)
		for _, pin := range c.HyperPins(int32(e)) {
			p := s.parts[pin]
			if s.hphi[base+p] == 0 {
				lam++
			}
			s.hphi[base+p]++
		}
		cost := c.HW[e] * (lam - 1)
		s.hcost[e] = cost
		s.hcut += cost
	}
}

// applyHyperMove updates Φ and the connectivity cost for u moving from
// part `from` to `to`. Called from apply before parts[u] changes.
func (s *State) applyHyperMove(u graph.Node, from, to int) {
	k := s.K
	for _, e := range s.C.IncidentHyper(u) {
		base := int(e) * k
		w := s.C.HW[e]
		s.hphi[base+from]--
		if s.hphi[base+from] == 0 {
			s.hcost[e] -= w
			s.hcut -= w
		}
		if s.hphi[base+to] == 0 {
			s.hcost[e] += w
			s.hcut += w
		}
		s.hphi[base+to]++
	}
}

// HyperCut returns the maintained hyperedge connectivity cost (0 for
// graphs without hyperedges).
func (s *State) HyperCut() int64 { return s.hcut }

// Objective returns the maintained optimization objective: the pairwise
// edge cut plus the hyperedge connectivity cost.
func (s *State) Objective() int64 { return s.cut + s.hcut }

// Replica returns the replica part of node u, or -1 when u is not
// replicated.
func (s *State) Replica(u graph.Node) int {
	if len(s.reps) == 0 {
		return -1
	}
	return s.reps[u]
}

// NumReplicas returns the number of currently replicated nodes.
func (s *State) NumReplicas() int { return s.nreps }

// Replicas returns the per-node replica parts (-1 = none), or nil when no
// node is replicated. The slice is owned by the State.
func (s *State) Replicas() []int {
	if s.nreps == 0 {
		return nil
	}
	return s.reps
}

// Replicate clones node u into part p: the clone consumes u's scalar and
// vector weight in p (excess counters follow per-part limits), cut edges
// whose other endpoint has a copy in p stop counting, and incident nets
// are re-priced under the replicated cost model. The replication is
// recorded on the shared undo log. Panics on misuse: p out of range, p
// already holding u, or u already replicated (one replica per node).
func (s *State) Replicate(u graph.Node, p int) {
	if p < 0 || p >= s.K {
		panic("pstate: replica part out of range")
	}
	if p == s.parts[u] {
		panic("pstate: replica into home part")
	}
	if s.Replica(u) >= 0 {
		panic("pstate: node already replicated")
	}
	if len(s.reps) == 0 {
		n := s.C.NumNodes()
		if cap(s.reps) < n {
			s.reps = make([]int, n)
		} else {
			s.reps = s.reps[:n]
		}
		for i := range s.reps {
			s.reps[i] = -1
		}
	}
	s.log = append(s.log, moveRec{u: u, from: p, rep: true})

	dres, dvec := s.replicaExcessDelta(u, p)
	s.resExcess += dres
	s.vecExcess += dvec
	s.res[p] += s.C.NodeW[u]
	if s.vectors != nil {
		pb := p * s.dims
		for d, v := range s.vectors[u] {
			s.vecTotals[pb+d] += v
		}
	}
	s.cut -= s.replicaCutRelief(u, p)
	s.reps[u] = p
	s.nreps++
	s.repriceNets(u)
}

// unreplicate dissolves u's replica in part p (the Undo path of
// Replicate), reversing every Replicate effect exactly.
func (s *State) unreplicate(u graph.Node, p int) {
	w := s.C.NodeW[u]
	s.resExcess += over(s.res[p]-w, s.rlim[p]) - over(s.res[p], s.rlim[p])
	s.res[p] -= w
	if s.vectors != nil {
		pb := p * s.dims
		for d, v := range s.vectors[u] {
			if v == 0 {
				continue
			}
			lim := s.vlim[pb+d]
			s.vecExcess += over(s.vecTotals[pb+d]-v, lim) - over(s.vecTotals[pb+d], lim)
			s.vecTotals[pb+d] -= v
		}
	}
	s.reps[u] = -1
	s.nreps--
	s.cut += s.replicaCutRelief(u, p)
	s.repriceNets(u)
}

// replicaExcessDelta returns the scalar and vector excess changes of
// charging u's weight and demand row to part p — the constraint side of
// Replicate(u, p). O(1+D), read-only.
func (s *State) replicaExcessDelta(u graph.Node, p int) (res, vec int64) {
	w := s.C.NodeW[u]
	res = over(s.res[p]+w, s.rlim[p]) - over(s.res[p], s.rlim[p])
	if s.vectors != nil {
		pb := p * s.dims
		for d, v := range s.vectors[u] {
			if v == 0 {
				continue
			}
			lim := s.vlim[pb+d]
			vec += over(s.vecTotals[pb+d]+v, lim) - over(s.vecTotals[pb+d], lim)
		}
	}
	return res, vec
}

// ReplicaDelta returns, without committing anything, the Objective change
// Replicate(u, p) would make: minus the cut edges a copy of u in p
// bridges, plus the re-priced cost of u's incident nets. It reads only
// u's row and u's nets, so it goes stale only when a neighbour of u or a
// pin of one of u's nets changes its replica. Preconditions are those of
// Replicate. Clobbers the scratch row.
func (s *State) ReplicaDelta(u graph.Node, p int) int64 {
	d := -s.replicaCutRelief(u, p)
	if s.hyper {
		for _, e := range s.C.IncidentHyper(u) {
			d += s.netCost(e, u, p) - s.hcost[e]
		}
	}
	return d
}

// ReplicaScore returns the Score that Replicate(u, p) would produce, given
// objDelta = ReplicaDelta(u, p): the maintained counters plus the excess
// change of charging u to p, through the same formula as Score, so the
// two agree bit for bit. O(1+D), read-only.
func (s *State) ReplicaScore(u graph.Node, p int, objDelta int64) float64 {
	dres, dvec := s.replicaExcessDelta(u, p)
	return s.score(s.cut+s.hcut+objDelta, s.bwExcess+s.resExcess+dres, s.vecExcess+dvec)
}

// replicaCutRelief returns the total weight of u's edges that are cut on
// home parts alone but bridged by a copy of u in part p — exactly the
// edges Replicate(u, p) uncuts and unreplicate re-cuts. The expression
// never reads u's own replica entry, so it is valid on both sides.
func (s *State) replicaCutRelief(u graph.Node, p int) int64 {
	var relief int64
	pu := s.parts[u]
	adj, wts := s.C.Row(u)
	for i, v := range adj {
		pv, rv := s.parts[v], s.Replica(v)
		if pu == pv || pu == rv {
			continue // not cut on home copies; the replica changes nothing
		}
		if p == pv || p == rv {
			relief += wts[i]
		}
	}
	return relief
}

// repriceNets recomputes the replicated cost of every net incident to u
// and folds the change into hcut. Recomputation (O(pins + K) per net) is
// exact on both the Replicate and Undo sides because the cost is a pure
// function of the assignment and replica vectors.
func (s *State) repriceNets(u graph.Node) {
	if !s.hyper {
		return
	}
	for _, e := range s.C.IncidentHyper(u) {
		nc := s.netCost(e, -1, -1)
		s.hcut += nc - s.hcost[e]
		s.hcost[e] = nc
	}
}

// netCost prices net e under replication: its weight times the number of
// parts holding a reader copy but no writer copy — the parts the producer
// stream must still be forwarded to. Mirrors metrics.ReplicatedHyperCut.
// When u >= 0, u's replica is taken to be q instead of its recorded one,
// which prices a clone before it is made. Clobbers the scratch row.
func (s *State) netCost(e int32, u graph.Node, q int) int64 {
	replica := func(v graph.Node) int {
		if v == u {
			return q
		}
		return s.Replica(v)
	}
	// The scratch row marks the parts holding a reader copy.
	pins := s.C.HyperPins(e)
	mark := &s.row
	mark.clear()
	for _, r := range pins[1:] {
		mark.add(s.parts[r], 1)
		if rp := replica(r); rp >= 0 {
			mark.add(rp, 1)
		}
	}
	src := pins[0]
	ps, rs := s.parts[src], replica(src)
	var need int64
	for _, p := range mark.Parts {
		if p != ps && p != rs {
			need++
		}
	}
	return s.C.HW[e] * need
}
