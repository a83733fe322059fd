// Package pool is the solver's shared, bounded, deterministic worker
// pool. Every parallel site in the solve path — the cycle fan-out, the
// pipeline race, the matching heuristics, and the restream sweeps — used
// to spawn fresh goroutines per level or pass; threading one pool
// through them means a solve pays the goroutine start-up cost once per
// process instead of once per pass.
//
// Determinism is structural, not scheduled: Run(n, fn) executes fn for
// every index 0..n-1 exactly once, callers give each task its own result
// slot indexed by the task (never a shared accumulator), and reductions
// happen on the submitting goroutine in submission order after Run
// returns. Which worker runs which task — and in what order — therefore
// cannot change any result bit.
//
// Deadlock freedom under nesting is by construction: Run never waits for
// a worker to become free. The submitting goroutine publishes the batch
// to the workers with non-blocking sends and then drains task indices
// itself until none remain, so every batch completes even if every
// worker is busy (or the pool has one worker, which makes Run a plain
// serial loop). A task may itself call Run; the inner call is just
// another draining caller.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TaskPanic is the panic value Run re-raises on the submitting goroutine
// when one or more tasks panicked. All tasks still run to completion
// (panics are captured per task, not propagated mid-batch), and when
// several tasks panic the one with the smallest index wins — so the
// re-raised value is independent of worker count and scheduling.
type TaskPanic struct {
	// Index is the task index whose panic is re-raised.
	Index int
	// Value is the task's original panic value.
	Value any
	// Stack is the panicking task's stack, captured at recover time.
	Stack []byte
}

func (tp *TaskPanic) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", tp.Index, tp.Value)
}

// Stats is a point-in-time observability snapshot (the ppnd /metrics
// source for the ppnd_pool_* families).
type Stats struct {
	// Workers is the configured width (helper goroutines + the caller).
	Workers int
	// Busy is the number of helper goroutines currently draining a batch.
	Busy int
	// QueueDepth is the number of published batch references not yet
	// picked up by a helper.
	QueueDepth int
	// Tasks is the cumulative number of task executions (helper- and
	// caller-run alike); Runs the cumulative number of Run calls.
	Tasks int64
	Runs  int64
}

// Pool is a fixed-width worker pool. The zero value is not usable; a nil
// *Pool is: every method treats nil as the shared Default pool, so
// option structs can carry an optional *Pool field without nil checks at
// the call sites.
type Pool struct {
	workers int
	work    chan *batch
	quit    chan struct{}
	closed  atomic.Bool
	busy    atomic.Int64
	tasks   atomic.Int64
	runs    atomic.Int64
}

// batch is one Run call's shared state. Helpers and the caller claim
// task indices from next; the last finisher closes done.
type batch struct {
	fn      func(int)
	n       int64
	next    atomic.Int64
	pending atomic.Int64
	done    chan struct{}

	mu         sync.Mutex
	panicIdx   int
	panicVal   any
	panicStack []byte
}

// New creates a pool of the given width. A width-w pool starts w-1
// background helper goroutines: the goroutine calling Run is always the
// w-th executor, so Run(n, fn) runs at most min(w, n) tasks of one batch
// concurrently. Width <= 1 starts no helpers and makes Run a serial
// in-order loop (the determinism baseline the golden tests compare
// against).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		work:    make(chan *batch, workers*2),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers-1; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, sized GOMAXPROCS,
// created on first use. It is never closed.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = New(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

// Prewarm forces creation of the shared Default pool so its helper
// goroutines exist before the first solve (ppnd calls this at daemon
// start, next to the arena workspace prewarm).
func Prewarm() *Pool { return Default() }

// Workers reports the pool's configured width.
func (p *Pool) Workers() int {
	if p == nil {
		return Default().Workers()
	}
	return p.workers
}

// Stats snapshots the pool's observability counters.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Default().Stats()
	}
	return Stats{
		Workers:    p.workers,
		Busy:       int(p.busy.Load()),
		QueueDepth: len(p.work),
		Tasks:      p.tasks.Load(),
		Runs:       p.runs.Load(),
	}
}

// Close stops the helper goroutines. Run remains usable on a closed pool
// (it degrades to the caller-only serial loop). The shared Default pool
// must not be closed.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	if p.closed.CompareAndSwap(false, true) {
		close(p.quit)
	}
}

// Run executes fn(i) exactly once for every i in [0, n), returning when
// all n calls have completed. The caller participates in the work, so
// Run completes even when every helper is busy — which is what makes
// nested Run calls (a task that itself fans out) deadlock-free. If any
// task panics, every task still runs, and Run re-panics with a
// *TaskPanic carrying the smallest panicking index.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		p = Default()
	}
	p.runs.Add(1)
	b := &batch{fn: fn, n: int64(n), done: make(chan struct{}), panicIdx: -1}
	b.pending.Store(int64(n))
	if n > 1 && p.workers > 1 && !p.closed.Load() {
		// Invite up to workers-1 helpers (the caller is the last
		// executor). Sends are non-blocking: a full queue just means the
		// caller drains a larger share itself.
		invites := p.workers - 1
		if invites > n-1 {
			invites = n - 1
		}
	publish:
		for i := 0; i < invites; i++ {
			select {
			case p.work <- b:
			default:
				break publish
			}
		}
	}
	p.drain(b)
	<-b.done
	b.mu.Lock()
	pi, pv, ps := b.panicIdx, b.panicVal, b.panicStack
	b.mu.Unlock()
	if pv != nil {
		panic(&TaskPanic{Index: pi, Value: pv, Stack: ps})
	}
}

// worker is a helper goroutine's loop: pick up a published batch, drain
// it alongside the caller, repeat.
func (p *Pool) worker() {
	for {
		select {
		case b := <-p.work:
			p.busy.Add(1)
			p.drain(b)
			p.busy.Add(-1)
		case <-p.quit:
			return
		}
	}
}

// drain claims and runs task indices until the batch has none left.
func (p *Pool) drain(b *batch) {
	for {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		p.runOne(b, int(i))
	}
}

// runOne executes one task, capturing a panic (keeping the smallest
// panicking index) and counting the batch down; the last task closes
// done.
func (p *Pool) runOne(b *batch, i int) {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			if b.panicVal == nil || i < b.panicIdx {
				b.panicIdx, b.panicVal, b.panicStack = i, r, debug.Stack()
			}
			b.mu.Unlock()
		}
		if b.pending.Add(-1) == 0 {
			close(b.done)
		}
	}()
	p.tasks.Add(1)
	b.fn(i)
}
