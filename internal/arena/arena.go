// Package arena provides reusable scratch workspaces for the multilevel
// partitioning solve path. A Workspace bundles typed slice free-lists
// (ints, weights, floats, node stacks, visited bitsets) and package-keyed
// extension caches (pstate move logs, gain-PQ storage) so that coarsening
// levels, GP cycles, greedy restarts, and refine passes reuse the same
// geometrically-grown backing arrays instead of reallocating them. The
// input graph itself needs no scratch: a solve reads the graph's own CSR
// (graph.Graph.ToCSR).
//
// Ownership model:
//
//   - A Workspace is checked out per goroutine (arena.Get) and returned
//     when the goroutine's unit of work ends (arena.Put). It is NOT safe
//     for concurrent use; sibling goroutines take their own workspace,
//     or a persistent child of their parent's (Workspace.Child).
//   - Pool.Put is an optimization, not an obligation: a buffer that
//     escapes into a result simply isn't returned and becomes ordinary
//     garbage. Never Put a buffer that is still referenced.
//   - Buffers handed out by Pool.Get are zeroed; Pool.Cap hands out
//     length-0 capacity for append-style use and is not zeroed.
package arena

import (
	"sync"
	"sync/atomic"

	"ppnpart/internal/graph"
)

// Pool is a free-list of []T scratch buffers with geometric growth.
// It is not safe for concurrent use; it lives inside a Workspace that
// is owned by one goroutine at a time.
type Pool[T any] struct {
	free [][]T
}

// Get returns a zeroed slice of length n, reusing the smallest free
// buffer with sufficient capacity when one exists.
func (p *Pool[T]) Get(n int) []T {
	s := p.Cap(n)[:n]
	clear(s)
	return s
}

// Cap returns a length-0 slice with capacity at least n for
// append-style use. The underlying memory is NOT cleared.
func (p *Pool[T]) Cap(n int) []T {
	best := -1
	for i, s := range p.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		s := p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		return s[:0]
	}
	c := 8
	for c < n {
		c *= 2
	}
	return make([]T, 0, c)
}

// Put returns a buffer to the free list. Putting nil is a no-op.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	p.free = append(p.free, s[:0])
}

// Workspace is the per-goroutine scratch bundle for one solve (or one
// refinement pipeline within a solve). Zero value is ready to use.
type Workspace struct {
	Ints   Pool[int]
	Int32s Pool[int32]
	Int64s Pool[int64]
	Floats Pool[float64]
	Bools  Pool[bool]
	Nodes  Pool[graph.Node]
	Edges  Pool[graph.Edge]

	children []*Workspace
	ext      map[any]any
}

// Child returns the i-th persistent sub-workspace, creating it on first
// use. Children let a bounded set of sibling goroutines (refinement
// pipelines, RNG-free matching heuristics) each reuse their own scratch
// across invocations while the parent retains ownership for pooling.
// The parent must not touch a child while the child's goroutine runs.
func (ws *Workspace) Child(i int) *Workspace {
	for len(ws.children) <= i {
		ws.children = append(ws.children, &Workspace{})
	}
	return ws.children[i]
}

// Ext returns the extension value stored under key, or nil. Packages
// use this to cache their own typed scratch (e.g. pstate's State free
// list) on the workspace without arena depending on them.
func (ws *Workspace) Ext(key any) any {
	return ws.ext[key]
}

// SetExt stores an extension value under key.
func (ws *Workspace) SetExt(key, val any) {
	if ws.ext == nil {
		ws.ext = make(map[any]any)
	}
	ws.ext[key] = val
}

var global = sync.Pool{New: func() any {
	news.Add(1)
	return &Workspace{}
}}

var gets, news, puts atomic.Int64

// Get checks a Workspace out of the process-wide pool. The caller's
// goroutine owns it until Put.
func Get() *Workspace {
	gets.Add(1)
	return global.Get().(*Workspace)
}

// Put returns a Workspace to the process-wide pool. The caller must
// not retain references into any buffer still parked in its pools.
func Put(ws *Workspace) {
	puts.Add(1)
	global.Put(ws)
}

// Prewarm populates the process-wide pool with n empty workspaces so a
// fixed-size worker pool (the ppnd scheduler) starts from a known
// checkout count. The workspaces' buffers still grow on first use.
func Prewarm(n int) {
	wss := make([]*Workspace, 0, n)
	for i := 0; i < n; i++ {
		wss = append(wss, Get())
	}
	for _, ws := range wss {
		Put(ws)
	}
}

// Stats reports cumulative checkout counters: total Gets, how many of
// those had to allocate a fresh Workspace (news), and total Puts.
func Stats() (getCount, newCount, putCount int64) {
	return gets.Load(), news.Load(), puts.Load()
}
