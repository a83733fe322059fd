// Package exact solves the constrained K-way partitioning problem
// optimally by branch and bound, for the small instances where that is
// tractable (the paper's §I: exact dynamic-programming/enumeration
// approaches work but "this is not the case when practical graphs are
// under examination"). It exists to measure GP's optimality gap on the
// 12-node paper instances and to cross-check feasibility verdicts: if
// exact says no feasible partition exists, GP's infeasibility message is
// vindicated; if exact finds one, GP's cut can be compared to the true
// optimum.
//
// The search assigns nodes in descending-weight order, one per level,
// pruning on: (a) partial resource overflow, (b) partial pairwise
// bandwidth overflow, (c) partial cut already at or above the incumbent,
// and (d) part-symmetry (a node may open at most one new empty part).
package exact

import (
	"fmt"
	"sort"
	"time"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// Options configures the exact solver.
type Options struct {
	// K is the number of partitions. Required.
	K int
	// Constraints are enforced as hard feasibility requirements.
	Constraints metrics.Constraints
	// MaxNodes refuses instances larger than this (default 24): beyond
	// ~two dozen nodes the search space is impractical, which is the
	// paper's point.
	MaxNodes int
	// TimeLimit aborts the search returning the best incumbent with
	// Proven=false (default: none).
	TimeLimit time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 24
	}
	return o
}

// Result is the exact solver's outcome.
type Result struct {
	// Parts is the optimal (or best incumbent) assignment; nil when no
	// feasible partition exists.
	Parts []int
	// Cut is the edge cut of Parts.
	Cut int64
	// Feasible reports whether any feasible partition was found.
	Feasible bool
	// Proven reports whether the search ran to completion (the result is
	// the true optimum / true infeasibility), as opposed to hitting the
	// time limit.
	Proven bool
	// NodesExplored counts branch-and-bound tree nodes.
	NodesExplored int64
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
}

type solver struct {
	g        *graph.Graph
	order    []graph.Node // assignment order (descending weight)
	k        int
	c        metrics.Constraints
	deadline time.Time
	hasLimit bool

	assign   []int // current partial assignment by node id (-1 unset)
	res      []int64
	cnt      []int
	bw       [][]int64
	cut      int64
	usedPart int // number of non-empty parts so far

	best       []int
	bestCut    int64
	hasBest    bool
	explored   int64
	timedOut   bool
	checkEvery int64
}

// Solve finds the minimum-cut partition of g into exactly K non-empty
// parts satisfying the constraints, or proves none exists.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := g.NumNodes()
	if opts.K <= 0 {
		return nil, fmt.Errorf("exact: K = %d must be positive", opts.K)
	}
	if n < opts.K {
		return nil, fmt.Errorf("exact: cannot split %d nodes into %d parts", n, opts.K)
	}
	if n > opts.MaxNodes {
		return nil, fmt.Errorf("exact: %d nodes exceeds MaxNodes=%d (exact search is for small instances)", n, opts.MaxNodes)
	}
	start := time.Now()
	s := &solver{
		g:          g,
		k:          opts.K,
		c:          opts.Constraints,
		assign:     make([]int, n),
		res:        make([]int64, opts.K),
		cnt:        make([]int, opts.K),
		bw:         make([][]int64, opts.K),
		checkEvery: 4096,
	}
	for i := range s.bw {
		s.bw[i] = make([]int64, opts.K)
	}
	for i := range s.assign {
		s.assign[i] = -1
	}
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit)
		s.hasLimit = true
	}
	// Descending weight order: heavy nodes constrain resources most, so
	// placing them first fails fast.
	s.order = make([]graph.Node, n)
	for i := range s.order {
		s.order[i] = graph.Node(i)
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		wa, wb := g.NodeWeight(s.order[a]), g.NodeWeight(s.order[b])
		if wa != wb {
			return wa > wb
		}
		return s.order[a] < s.order[b]
	})
	s.search(0)

	res := &Result{
		Feasible:      s.hasBest,
		Proven:        !s.timedOut,
		NodesExplored: s.explored,
		Runtime:       time.Since(start),
	}
	if s.hasBest {
		res.Parts = s.best
		res.Cut = s.bestCut
	}
	return res, nil
}

// search assigns order[depth..] recursively.
func (s *solver) search(depth int) {
	if s.timedOut {
		return
	}
	s.explored++
	if s.hasLimit && s.explored%s.checkEvery == 0 && time.Now().After(s.deadline) {
		s.timedOut = true
		return
	}
	n := len(s.order)
	if depth == n {
		if s.usedPart < s.k {
			return // some parts empty: not a K-way partition
		}
		if !s.hasBest || s.cut < s.bestCut {
			s.best = append([]int(nil), s.assign...)
			s.bestCut = s.cut
			s.hasBest = true
		}
		return
	}
	// Prune: even with zero additional cut, can the remaining nodes open
	// enough parts? remaining >= parts still to open.
	remaining := n - depth
	if s.usedPart+remaining < s.k {
		return
	}
	u := s.order[depth]
	w := s.g.NodeWeight(u)
	// Connectivity of u to each part among already-assigned neighbors —
	// accumulated per part, so multiple edges into the same part are
	// bounded together.
	conn := make([]int64, s.k)
	var connTotal int64
	nbrs, wts := s.g.Row(u)
	for i, v := range nbrs {
		if q := s.assign[v]; q >= 0 {
			conn[q] += wts[i]
			connTotal += wts[i]
		}
	}
	// Symmetry breaking: try each currently used part, plus exactly one
	// new part (the lowest-indexed empty one).
	triedEmpty := false
	for p := 0; p < s.k; p++ {
		empty := s.cnt[p] == 0
		if empty {
			if triedEmpty {
				continue
			}
			triedEmpty = true
		}
		if s.c.Rmax > 0 && s.res[p]+w > s.c.Rmax {
			continue
		}
		cutDelta := connTotal - conn[p]
		if s.c.Bmax > 0 {
			feasible := true
			for q := 0; q < s.k; q++ {
				if q == p || conn[q] == 0 {
					continue
				}
				if s.bw[p][q]+conn[q] > s.c.Bmax {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
		}
		if s.hasBest && s.cut+cutDelta >= s.bestCut {
			continue // bound: partial cut only grows
		}
		// Apply.
		s.assign[u] = p
		s.res[p] += w
		s.cnt[p]++
		if empty {
			s.usedPart++
		}
		for q := 0; q < s.k; q++ {
			if q != p && conn[q] > 0 {
				s.bw[p][q] += conn[q]
				s.bw[q][p] += conn[q]
			}
		}
		s.cut += cutDelta

		s.search(depth + 1)

		// Undo.
		s.cut -= cutDelta
		for q := 0; q < s.k; q++ {
			if q != p && conn[q] > 0 {
				s.bw[p][q] -= conn[q]
				s.bw[q][p] -= conn[q]
			}
		}
		if empty {
			s.usedPart--
		}
		s.cnt[p]--
		s.res[p] -= w
		s.assign[u] = -1
	}
}
