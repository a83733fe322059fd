package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/journal"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
)

// Submission errors.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at its
	// hard capacity — shed load instead of buffering unboundedly.
	ErrQueueFull = errors.New("job queue full")
	// ErrOverloaded is the base of every load-shedding rejection
	// (watermark or hard cap); handlers map it to HTTP 429 with a
	// Retry-After hint.
	ErrOverloaded = errors.New("server overloaded")
	// ErrDraining rejects submissions during graceful shutdown (503: the
	// instance is going away, the client should try another replica).
	ErrDraining = errors.New("server draining")
	// ErrQuarantined rejects graphs whose hash accumulated too many
	// solver panics; handlers map it to HTTP 422.
	ErrQuarantined = errors.New("graph quarantined after repeated solver panics")
	// ErrJournalAppend rejects an async submission whose durable journal
	// record could not be written: accepting it would promise crash
	// recovery the daemon cannot deliver.
	ErrJournalAppend = errors.New("journal append failed")
)

// OverloadError is a load-shedding rejection with the admission-control
// detail the HTTP layer needs: the shed reason and the backoff hint
// derived from the observed solve-time EWMA and the queue backlog.
type OverloadError struct {
	// Reason is "watermark" (priority shed short of capacity) or
	// "queue_full" (hard bound).
	Reason string
	// Priority is the shed request's priority class.
	Priority string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("server overloaded (%s, priority %s): retry after %s",
		e.Reason, e.Priority, e.RetryAfter)
}

// Is makes errors.Is see both ErrOverloaded and (for the hard bound)
// ErrQueueFull.
func (e *OverloadError) Is(target error) bool {
	return target == ErrOverloaded || (e.Reason == "queue_full" && target == ErrQueueFull)
}

// ErrJobNotFound is returned for unknown job ids; handlers map it to 404.
var ErrJobNotFound = errors.New("job not found")

// JobState is the lifecycle of a job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is solving it.
	StateRunning JobState = "running"
	// StateDone: finished (result may still be infeasible or truncated —
	// see the result's Outcome).
	StateDone JobState = "done"
	// StateFailed: the solver returned an error (invalid options escape
	// earlier validation only through internal bugs, so this is rare).
	StateFailed JobState = "failed"
)

// Job outcomes, recorded on completed results.
const (
	// OutcomeFeasible: the partition satisfies Bmax and Rmax.
	OutcomeFeasible = "feasible"
	// OutcomeInfeasible: the solver exhausted its budget without meeting
	// the constraints; the best (violating) partition is returned,
	// explicitly flagged infeasible.
	OutcomeInfeasible = "infeasible"
	// OutcomeDeadline: the per-job deadline expired; the best partition
	// found so far is returned.
	OutcomeDeadline = "deadline_exceeded"
	// OutcomeCancelled: the job was cancelled by the client or by drain.
	OutcomeCancelled = "cancelled"
	// OutcomeError: the solver failed.
	OutcomeError = "error"
	// OutcomePanic: the solver panicked (and the degraded retry, when
	// attempted, did not produce a result either). The panic was
	// contained to this job; the worker pool keeps serving.
	OutcomePanic = "panic"
)

// JobResult is the terminal payload of a job, shaped for JSON delivery.
type JobResult struct {
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Feasible reports whether the partition meets both constraints.
	Feasible bool `json:"feasible"`
	// Parts is the node -> partition assignment.
	Parts []int `json:"parts,omitempty"`
	// K echoes the requested part count.
	K int `json:"k"`
	// EdgeCut, MaxLocalBandwidth, MaxResource summarize the partition.
	EdgeCut           int64 `json:"edge_cut"`
	MaxLocalBandwidth int64 `json:"max_local_bandwidth"`
	MaxResource       int64 `json:"max_resource"`
	// HyperedgeCut is the connectivity-1 cost of the request's fanout
	// nets (zero when the graph carries none).
	HyperedgeCut int64 `json:"hyperedge_cut,omitempty"`
	// Replicas maps each node to the partition holding its clone (-1 =
	// none); present only when the job asked for replication.
	Replicas []int `json:"replicas,omitempty"`
	// ReplicatedNodes counts the clones the replication pass committed.
	ReplicatedNodes int `json:"replicated_nodes,omitempty"`
	// Violations lists every violated constraint instance (infeasible or
	// truncated results).
	Violations []string `json:"violations,omitempty"`
	// Cycles is the number of GP cycles executed.
	Cycles int `json:"cycles"`
	// Goodness is the solver's score (cut when feasible).
	Goodness float64 `json:"goodness"`
	// SolveMS is the solver wall-clock in milliseconds.
	SolveMS int64 `json:"solve_ms"`
	// Message carries the solver's infeasibility explanation or error.
	Message string `json:"message,omitempty"`
	// Trace summarizes the staged engine's solve trace: cycles counted vs
	// pruned/discarded, hierarchy levels by matching heuristic, FM effort
	// and per-stage wall time. Absent on cancelled-before-start and error
	// results.
	Trace *engine.TraceSummary `json:"trace,omitempty"`
	// Cached is set on delivery when the result came from the LRU cache.
	Cached bool `json:"cached,omitempty"`
}

// Job is one tracked partition request.
type Job struct {
	// ID addresses the job under /jobs/{id}.
	ID string
	// Key is the canonical request hash (cache / coalescing key).
	Key string
	// Created is the submission time.
	Created time.Time

	sched  *Scheduler
	req    *JobRequest
	g      *graph.Graph
	runCtx context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// journaled marks jobs whose lifecycle is recorded in the durable
	// journal (async jobs when journaling is on, and every recovered job).
	journaled bool

	mu            sync.Mutex
	state         JobState
	result        *JobResult
	userCancelled bool
	drained       bool
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the terminal payload, nil until the job is done.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation. Queued jobs settle immediately as
// cancelled; running jobs stop at the solver's next cycle boundary and
// settle with their best-so-far partition.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.userCancelled = true
	j.mu.Unlock()
	j.cancel()
}

// Solver computes a partition, recording its staged progress into tr when
// non-nil; the scheduler's default is core.PartitionTraceCtx. Tests
// substitute gated solvers to pin down coalescing, cancellation and drain
// order deterministically.
type Solver func(ctx context.Context, g *graph.Graph, opts core.Options, tr *engine.Trace) (*core.Result, error)

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the solve concurrency (default 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64).
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 256; 0 keeps the
	// default, negative disables caching).
	CacheSize int
	// DefaultTimeout caps solves that do not set timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// MaxFinishedJobs bounds retained terminal jobs (default 1024).
	MaxFinishedJobs int
	// Journal, when non-nil, makes async job lifecycles durable: a
	// submission record is fsync'd before the job is acknowledged and a
	// terminal record when it settles, so Recover can replay jobs lost
	// to a crash. Nil disables journaling at zero cost.
	Journal *journal.Journal
	// QuarantineThreshold is the number of solver panics a graph hash
	// accumulates before new submissions of it are refused (default 2;
	// negative disables quarantining).
	QuarantineThreshold int
	// Solver overrides the partitioner (tests only).
	Solver Solver
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 1024
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 2
	}
	if c.Solver == nil {
		c.Solver = func(ctx context.Context, g *graph.Graph, opts core.Options, tr *engine.Trace) (*core.Result, error) {
			return core.PartitionTraceCtx(ctx, g, opts, tr)
		}
	}
	return c
}

// Scheduler runs partition jobs on a bounded worker pool with per-job
// deadlines, coalesces identical in-flight requests, and fills the result
// cache. It owns the job store.
type Scheduler struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics

	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job // id -> job
	inflight map[string]*Job // key -> queued/running job
	finished []string        // terminal job ids, oldest first (retention ring)
	nextID   int64
	draining bool
	running  int
	// ewmaSec is the exponentially weighted moving average of solve
	// wall-clock seconds (0 = no sample yet); Retry-After hints derive
	// from it.
	ewmaSec float64
	// panicCounts tallies solver panics per graph+options hash;
	// quarantined holds the hashes past the threshold.
	panicCounts map[string]int
	quarantined map[string]bool

	wg       sync.WaitGroup
	shutdown context.CancelFunc
	baseCtx  context.Context
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg Config, m *Metrics) *Scheduler {
	cfg = cfg.withDefaults()
	if m == nil {
		m = NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:         cfg,
		cache:       NewCache(cfg.CacheSize),
		metrics:     m,
		queue:       make(chan *Job, cfg.QueueDepth),
		jobs:        make(map[string]*Job),
		inflight:    make(map[string]*Job),
		panicCounts: make(map[string]int),
		quarantined: make(map[string]bool),
		baseCtx:     ctx,
		shutdown:    cancel,
	}
	// Each worker checks one solver workspace out of the arena per job;
	// warming the pool up front means steady-state solves never hit a
	// cold (allocating) checkout. The shared solver pool's helper
	// goroutines spin up alongside, so the first solve never pays the
	// fan-out start-up either.
	arena.Prewarm(cfg.Workers)
	pool.Prewarm()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the scheduler's registry.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Cache returns the result cache.
func (s *Scheduler) Cache() *Cache { return s.cache }

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// InFlight returns the number of jobs currently solving.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Draining reports whether graceful shutdown has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Lookup returns a job by id.
func (s *Scheduler) Lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrJobNotFound
	}
	return j, nil
}

// admissionLimit is the queue-depth watermark at which a priority class
// is shed. Low-priority jobs yield half the queue to better traffic,
// normal-priority jobs keep a headroom slice (1/8th of the queue) free
// for high-priority work, and high-priority jobs are refused only at the
// hard bound.
func (s *Scheduler) admissionLimit(priority string) int {
	c := s.cfg.QueueDepth
	var limit int
	switch priority {
	case PriorityLow:
		limit = c / 2
	case PriorityHigh:
		limit = c
	default:
		limit = c - c/8
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// retryAfterLocked derives the client backoff hint from the observed
// solve-time EWMA and the current backlog: roughly the wall-clock until a
// worker frees up for the queue tail, clamped to [1s, 60s]. Callers hold
// s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	est := s.ewmaSec
	if est <= 0 {
		est = 1
	}
	eta := est * float64(len(s.queue)/s.cfg.Workers+1)
	d := time.Duration(eta * float64(time.Second))
	// Round up to whole seconds (the Retry-After header's granularity).
	d = d.Truncate(time.Second) + time.Second
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// observeSolveTime folds one solve's wall-clock into the EWMA.
func (s *Scheduler) observeSolveTime(elapsed time.Duration) {
	s.mu.Lock()
	sec := elapsed.Seconds()
	if s.ewmaSec == 0 {
		s.ewmaSec = sec
	} else {
		s.ewmaSec = 0.3*sec + 0.7*s.ewmaSec
	}
	s.mu.Unlock()
}

// SolveEWMA returns the current solve-time estimate (0 until a solve
// completes).
func (s *Scheduler) SolveEWMA() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.ewmaSec * float64(time.Second))
}

// Submit accepts a validated request. It returns either a cached terminal
// result (hit=true), or the job tracking the work — which may be an
// existing identical in-flight job (coalesced=true) rather than a new one.
// Admission control runs before any job is created: quarantined graphs
// are refused outright, and per-priority queue watermarks shed load with
// a Retry-After hint instead of buffering unboundedly.
func (s *Scheduler) Submit(req *JobRequest, g *graph.Graph) (job *Job, cached *JobResult, coalesced bool, err error) {
	key := req.CacheKey(g)
	if res, ok := s.cache.Get(key); ok {
		s.metrics.CacheHit()
		hit := *res // shallow copy; Parts is shared but never mutated
		hit.Cached = true
		return nil, &hit, false, nil
	}
	s.metrics.CacheMiss()

	prio := req.PriorityClass()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.Rejected("draining")
		return nil, nil, false, ErrDraining
	}
	if s.quarantined[key] {
		s.mu.Unlock()
		s.metrics.Rejected("quarantined")
		return nil, nil, false, fmt.Errorf("%w (key %s)", ErrQuarantined, key[:16])
	}
	if j, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.Coalesced()
		return j, nil, true, nil
	}
	if limit := s.admissionLimit(prio); len(s.queue) >= limit {
		oe := &OverloadError{Reason: "watermark", Priority: prio, RetryAfter: s.retryAfterLocked()}
		s.mu.Unlock()
		s.metrics.Shed(prio)
		s.metrics.Rejected("overload")
		return nil, nil, false, oe
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:        id,
		Key:       key,
		Created:   time.Now(),
		sched:     s,
		req:       req,
		g:         g,
		runCtx:    ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		journaled: req.Async && s.cfg.Journal != nil,
	}
	s.jobs[id] = j
	s.inflight[key] = j

	select {
	case s.queue <- j:
	default:
		// Queue full: roll back the registration and shed the request.
		delete(s.jobs, id)
		delete(s.inflight, key)
		oe := &OverloadError{Reason: "queue_full", Priority: prio, RetryAfter: s.retryAfterLocked()}
		s.mu.Unlock()
		cancel()
		s.metrics.Shed(prio)
		s.metrics.Rejected("queue_full")
		return nil, nil, false, oe
	}
	s.mu.Unlock()

	// Durability barrier: the submission record must be on stable storage
	// before the caller acknowledges the job. A failed append withdraws
	// the acceptance (the job is cancelled and the client told to retry)
	// rather than promising crash recovery the journal cannot back.
	if j.journaled {
		body, merr := json.Marshal(req)
		if merr == nil {
			merr = s.cfg.Journal.Append(journal.Record{
				Type: journal.TypeSubmit, JobID: id, Key: key, Request: body,
			})
		}
		if merr != nil {
			s.metrics.JournalError()
			s.metrics.Rejected("journal_error")
			j.Cancel()
			return nil, nil, false, fmt.Errorf("%w: %v", ErrJournalAppend, merr)
		}
	}
	return j, nil, false, nil
}

// Recover replays pending submission records (journal.Pending of the
// replayed journal) as live jobs, reusing their original job ids so
// clients polling GET /jobs/{id} across the restart see their job finish.
// The solver's determinism contract makes the replayed result bit-identical
// to what the lost process would have produced. Records whose request no
// longer decodes (e.g. a journal from an older, incompatible build) are
// skipped and counted in the returned error; the rest still recover.
func (s *Scheduler) Recover(pending []journal.Record) (int, error) {
	var skipped []string
	n := 0
	for _, rec := range pending {
		req, g, err := DecodeJobRequest(bytes.NewReader(rec.Request))
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", rec.JobID, err))
			continue
		}
		// Replayed jobs are asynchronous by construction (only async jobs
		// are journaled) and stay journaled so their settle writes the
		// terminal record the original acceptance promised.
		req.Async = true
		key := req.CacheKey(g)

		s.mu.Lock()
		// Keep the id counter ahead of every replayed id so new jobs never
		// collide with recovered ones.
		if tail, ok := strings.CutPrefix(rec.JobID, "job-"); ok {
			if v, err := strconv.ParseInt(tail, 10, 64); err == nil && v > s.nextID {
				s.nextID = v
			}
		}
		if _, exists := s.jobs[rec.JobID]; exists {
			s.mu.Unlock()
			skipped = append(skipped, fmt.Sprintf("%s: duplicate job id in journal", rec.JobID))
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := &Job{
			ID:        rec.JobID,
			Key:       key,
			Created:   time.Now(),
			sched:     s,
			req:       req,
			g:         g,
			runCtx:    ctx,
			cancel:    cancel,
			done:      make(chan struct{}),
			state:     StateQueued,
			journaled: s.cfg.Journal != nil,
		}
		s.jobs[rec.JobID] = j
		coalesced := false
		if _, ok := s.inflight[key]; ok {
			// An identical job is already replaying; this one settles when
			// that one does. Settle it immediately from the cache once the
			// twin completes — simplest is to just run it too; the cache
			// check below keeps the cost to one solve.
			coalesced = true
		} else {
			s.inflight[key] = j
		}
		s.mu.Unlock()

		s.metrics.RecoveredJob()
		n++
		if res, ok := s.cache.Get(key); ok {
			// The result is already known (an identical request completed
			// after this one was journaled): settle without solving.
			hit := *res
			hit.Cached = true
			s.settle(j, StateDone, &hit, 0)
			continue
		}
		if coalesced {
			go func(j *Job) {
				twin, err := func() (*Job, error) {
					s.mu.Lock()
					defer s.mu.Unlock()
					t := s.inflight[j.Key]
					if t == nil || t == j {
						return nil, fmt.Errorf("no twin")
					}
					return t, nil
				}()
				if err == nil {
					<-twin.Done()
					s.settle(j, twin.State(), twin.Result(), 0)
					return
				}
				s.run(j)
			}(j)
			continue
		}
		// Recovery happens before the HTTP listener accepts traffic, so a
		// blocking send is safe: the queue holds at most QueueDepth accepted
		// jobs (admission control bounded it before the crash) plus what
		// recovery adds, and workers are already draining it.
		s.queue <- j
	}
	if len(skipped) > 0 {
		return n, fmt.Errorf("journal recovery skipped %d record(s): %s",
			len(skipped), strings.Join(skipped, "; "))
	}
	return n, nil
}

// worker drains the queue until shutdown.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			// Drain deadline passed or scheduler closed: settle whatever
			// is still queued as cancelled so waiters unblock.
			for {
				select {
				case j := <-s.queue:
					s.settleCancelled(j)
				default:
					return
				}
			}
		case j := <-s.queue:
			s.run(j)
		}
	}
}

// solveOnce runs one solve attempt under the job's deadline with panic
// containment: a panicking solver is converted into a non-nil panicVal
// instead of unwinding the worker goroutine.
func (s *Scheduler) solveOnce(j *Job, opts core.Options) (res *core.Result, tr *engine.Trace, deadlineHit bool, err error, panicVal any) {
	ctx, cancel := context.WithTimeout(j.runCtx, j.req.Timeout(s.cfg.DefaultTimeout))
	defer cancel()
	tr = &engine.Trace{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicVal = r
			}
		}()
		res, err = s.cfg.Solver(ctx, j.g, opts, tr)
	}()
	deadlineHit = ctx.Err() == context.DeadlineExceeded
	return res, tr, deadlineHit, err, panicVal
}

// panicMessage renders a recovered panic value for a job result, bounded
// so a stack-bearing panic does not bloat the JSON payload.
func panicMessage(v any) string {
	msg := fmt.Sprintf("%v", v)
	if i := strings.IndexByte(msg, '\n'); i > 0 {
		msg = msg[:i]
	}
	if len(msg) > 300 {
		msg = msg[:300] + "..."
	}
	return msg
}

// degradedOptions is the retry configuration after a panic: serial
// refinement (one cycle at a time) with shared-incumbent pruning off and
// the data-parallel batch refiner disabled — the most conservative search
// the engine offers, cutting out the concurrent machinery a panicking
// solve may have tripped over.
func degradedOptions(opts core.Options) core.Options {
	opts.Parallelism = 1
	opts.Prune = engine.PruneOff
	opts.Refine = engine.RefineSerial
	return opts
}

// run executes one job under its deadline. Panics are isolated to the
// job: the first panic triggers one degraded-configuration retry, a
// second (or a quarantined graph) fails the job with a typed panic
// outcome — the worker itself never dies.
func (s *Scheduler) run(j *Job) {
	j.mu.Lock()
	if j.userCancelled {
		j.mu.Unlock()
		s.settleCancelled(j)
		return
	}
	j.state = StateRunning
	j.mu.Unlock()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	start := time.Now()
	res, tr, deadlineHit, err, panicVal := s.solveOnce(j, j.req.CoreOptions())
	if panicVal != nil {
		s.metrics.WorkerPanic()
		firstPanic := panicMessage(panicVal)
		if s.recordPanic(j.Key) {
			s.settle(j, StateFailed, &JobResult{
				Outcome: OutcomePanic,
				K:       j.req.K,
				Message: fmt.Sprintf("solver panicked: %s; graph quarantined", firstPanic),
				SolveMS: time.Since(start).Milliseconds(),
			}, time.Since(start))
			return
		}
		// One retry with the degraded solver before giving up.
		s.metrics.DegradedRetry()
		res, tr, deadlineHit, err, panicVal = s.solveOnce(j, degradedOptions(j.req.CoreOptions()))
		if panicVal != nil {
			s.metrics.WorkerPanic()
			s.recordPanic(j.Key)
			s.settle(j, StateFailed, &JobResult{
				Outcome: OutcomePanic,
				K:       j.req.K,
				Message: fmt.Sprintf("solver panicked: %s; degraded retry panicked too: %s", firstPanic, panicMessage(panicVal)),
				SolveMS: time.Since(start).Milliseconds(),
			}, time.Since(start))
			return
		}
	} else {
		s.clearPanics(j.Key)
	}
	elapsed := time.Since(start)

	if err != nil {
		s.settle(j, StateFailed, &JobResult{
			Outcome: OutcomeError,
			K:       j.req.K,
			Message: err.Error(),
			SolveMS: elapsed.Milliseconds(),
		}, elapsed)
		return
	}
	s.observeSolveTime(elapsed)

	jr := resultToJSON(j.req, res)
	jr.SolveMS = elapsed.Milliseconds()
	s.metrics.HyperResult(jr.ReplicatedNodes, jr.HyperedgeCut)
	// Stub solvers (tests) never record into tr; only attach and export a
	// summary when the staged engine actually ran cycles.
	if sum := tr.Summary(); sum.Cycles > 0 {
		jr.Trace = &sum
		s.metrics.SolveTrace(sum)
	}
	if res.Stopped {
		j.mu.Lock()
		user := j.userCancelled || j.drained
		j.mu.Unlock()
		if user || !deadlineHit {
			jr.Outcome = OutcomeCancelled
		} else {
			jr.Outcome = OutcomeDeadline
		}
		s.settle(j, StateDone, jr, elapsed)
		return
	}
	// Complete results — and only complete results — feed the cache.
	s.cache.Put(j.Key, jr)
	s.settle(j, StateDone, jr, elapsed)
}

// settleCancelled finalizes a job that never ran.
func (s *Scheduler) settleCancelled(j *Job) {
	s.settle(j, StateDone, &JobResult{
		Outcome: OutcomeCancelled,
		K:       j.req.K,
		Message: "cancelled before solving started",
	}, 0)
}

// recordPanic tallies a solver panic against a graph hash and reports
// whether the hash is (now) quarantined.
func (s *Scheduler) recordPanic(key string) bool {
	if s.cfg.QuarantineThreshold < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.panicCounts[key]++
	if s.panicCounts[key] >= s.cfg.QuarantineThreshold {
		s.quarantined[key] = true
	}
	return s.quarantined[key]
}

// clearPanics forgets panic history after a clean full-configuration
// solve of the key.
func (s *Scheduler) clearPanics(key string) {
	s.mu.Lock()
	if s.panicCounts[key] > 0 && !s.quarantined[key] {
		delete(s.panicCounts, key)
	}
	s.mu.Unlock()
}

// QuarantinedGraphs returns the number of quarantined graph hashes (the
// /metrics gauge).
func (s *Scheduler) QuarantinedGraphs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

// settle records the terminal state, closes Done, releases the coalescing
// slot and trims the retention ring. A settled job answers from its
// result alone, so settle drops the request and graph it solved and
// cancels its context: the ring then holds results, not inputs, and the
// scheduler's base context no longer tracks the job.
func (s *Scheduler) settle(j *Job, st JobState, res *JobResult, elapsed time.Duration) {
	j.mu.Lock()
	j.state = st
	j.result = res
	j.req, j.g = nil, nil
	j.mu.Unlock()
	j.cancel()
	close(j.done)

	// Journaled jobs get a terminal record so recovery does not replay
	// them. A failed append is survivable (worst case the job replays
	// and the determinism contract re-derives the same result), so it is
	// counted, not fatal.
	if j.journaled {
		typ := journal.TypeDone
		if res.Outcome == OutcomeCancelled {
			typ = journal.TypeCancel
		}
		if err := s.cfg.Journal.Append(journal.Record{
			Type: typ, JobID: j.ID, Key: j.Key, Outcome: res.Outcome,
		}); err != nil {
			s.metrics.JournalError()
		}
	}

	s.metrics.JobDone(res.Outcome, elapsed)

	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.MaxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// resultToJSON shapes a solver result for delivery. The report inside a
// core.Result is already the from-scratch metrics evaluation of the
// returned parts under the request's constraints.
func resultToJSON(req *JobRequest, res *core.Result) *JobResult {
	jr := &JobResult{
		Feasible:          res.Feasible,
		Parts:             res.Parts,
		K:                 res.K,
		EdgeCut:           res.Report.EdgeCut,
		MaxLocalBandwidth: res.Report.MaxLocalBandwidth,
		MaxResource:       res.Report.MaxResource,
		HyperedgeCut:      res.Report.HyperCut,
		Replicas:          res.Replicas,
		ReplicatedNodes:   res.ReplicatedNodes,
		Cycles:            res.Cycles,
		Goodness:          res.Goodness,
		Message:           res.Message,
	}
	if res.Feasible {
		jr.Outcome = OutcomeFeasible
	} else {
		jr.Outcome = OutcomeInfeasible
	}
	for _, v := range res.Report.Violations {
		jr.Violations = append(jr.Violations, v.String())
	}
	return jr
}

// Drain begins graceful shutdown: new submissions are rejected, queued
// and running jobs are given until ctx expires to finish, then cancelled.
// It returns once every job has settled and the workers have exited.
func (s *Scheduler) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	// Wait for in-flight and queued jobs to settle, up to the drain
	// deadline.
	settled := make(chan struct{})
	go func() {
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-ctx.Done():
				return
			}
		}
		close(settled)
	}()
	select {
	case <-settled:
	case <-ctx.Done():
		// Deadline: cancel everything still live. Running solves stop at
		// the next cycle boundary and settle as cancelled.
		for _, j := range jobs {
			select {
			case <-j.Done():
			default:
				j.mu.Lock()
				j.drained = true
				j.mu.Unlock()
				j.cancel()
			}
		}
		for _, j := range jobs {
			<-j.Done()
		}
	}
	// Stop the workers.
	s.shutdown()
	s.wg.Wait()
}

// Close is Drain with an already-expired deadline: cancel everything now.
func (s *Scheduler) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// Feasibility cross-check used by the HTTP layer's invariant mode: a
// served result must satisfy the constraints it claims to satisfy.
func verifyResult(g *graph.Graph, req *JobRequest, jr *JobResult) error {
	if len(jr.Parts) == 0 {
		return nil
	}
	rep := metrics.Evaluate(g, jr.Parts, req.K, metrics.Constraints{Bmax: req.Bmax, Rmax: req.Rmax})
	if rep.EdgeCut != jr.EdgeCut || rep.MaxLocalBandwidth != jr.MaxLocalBandwidth ||
		rep.MaxResource != jr.MaxResource || rep.Feasible != jr.Feasible {
		return fmt.Errorf("server: served metrics diverge from recomputation: "+
			"cut %d/%d bw %d/%d res %d/%d feasible %v/%v",
			jr.EdgeCut, rep.EdgeCut, jr.MaxLocalBandwidth, rep.MaxLocalBandwidth,
			jr.MaxResource, rep.MaxResource, jr.Feasible, rep.Feasible)
	}
	return nil
}
