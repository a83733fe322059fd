package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// newTestServer spins up the full HTTP stack over cfg and tears it down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(NewScheduler(cfg, nil), nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Scheduler().Close()
	})
	return srv, ts
}

// postJob submits a body and decodes the envelope.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, jobEnvelope) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("status %d, undecodable body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, env
}

// pollJob polls /jobs/{id} until the job settles.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobEnvelope {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var env jobEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if env.State == StateDone || env.State == StateFailed {
			return env
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return jobEnvelope{}
}

// gate coordinates a deterministic fake solver: each solve reports on
// started, then blocks until release is closed (or its context ends).
type gate struct {
	started chan string
	release chan struct{}
}

func newGate() *gate {
	return &gate{started: make(chan string, 16), release: make(chan struct{})}
}

// fakeResult builds a round-robin partition whose report is the honest
// metrics evaluation, so the server's invariant cross-check holds.
func fakeResult(g *graph.Graph, opts core.Options, stopped bool) *core.Result {
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % opts.K
	}
	rep := metrics.Evaluate(g, parts, opts.K, opts.Constraints)
	return &core.Result{
		Parts:    parts,
		K:        opts.K,
		Feasible: rep.Feasible,
		Goodness: float64(rep.EdgeCut),
		Report:   rep,
		Stopped:  stopped,
	}
}

// gatedSolver blocks until released; on context cancellation it returns a
// best-effort Stopped result, mirroring core.PartitionCtx semantics.
func gatedSolver(gt *gate) Solver {
	return func(ctx context.Context, g *graph.Graph, opts core.Options, _ *engine.Trace) (*core.Result, error) {
		gt.started <- fmt.Sprintf("k=%d seed=%d", opts.K, opts.Seed)
		select {
		case <-gt.release:
			return fakeResult(g, opts, false), nil
		case <-ctx.Done():
			return fakeResult(g, opts, true), nil
		}
	}
}

func waitStarted(t *testing.T, gt *gate) {
	t.Helper()
	select {
	case <-gt.started:
	case <-time.After(5 * time.Second):
		t.Fatal("solver never started")
	}
}

func TestSyncSolveEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := ringBody(24, 3, 1000, 1000, `"options":{"seed":1,"max_cycles":4}`)
	status, env := postJob(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if env.State != StateDone || env.Result == nil {
		t.Fatalf("envelope = %+v, want done with result", env)
	}
	r := env.Result
	if r.Outcome != OutcomeFeasible || !r.Feasible {
		t.Fatalf("outcome = %s feasible = %v: %s", r.Outcome, r.Feasible, r.Message)
	}
	if len(r.Parts) != 24 {
		t.Fatalf("parts length = %d, want 24", len(r.Parts))
	}
	assertResultInvariants(t, body, r)
}

// assertResultInvariants re-decodes the request, rebuilds the graph, and
// recomputes every served metric from scratch via internal/metrics —
// the server-level arm of the invariant harness, independent of the
// server's own VerifyResults path.
func assertResultInvariants(t *testing.T, body string, r *JobResult) {
	t.Helper()
	req, g, err := DecodeJobRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Parts) != g.NumNodes() {
		t.Fatalf("parts length %d != %d nodes", len(r.Parts), g.NumNodes())
	}
	for u, p := range r.Parts {
		if p < 0 || p >= req.K {
			t.Fatalf("node %d assigned to part %d outside [0,%d)", u, p, req.K)
		}
	}
	cons := metrics.Constraints{Bmax: req.Bmax, Rmax: req.Rmax}
	rep := metrics.Evaluate(g, r.Parts, req.K, cons)
	if rep.EdgeCut != r.EdgeCut {
		t.Errorf("served cut %d != recomputed %d", r.EdgeCut, rep.EdgeCut)
	}
	if rep.MaxLocalBandwidth != r.MaxLocalBandwidth {
		t.Errorf("served maxBW %d != recomputed %d", r.MaxLocalBandwidth, rep.MaxLocalBandwidth)
	}
	if rep.MaxResource != r.MaxResource {
		t.Errorf("served maxRes %d != recomputed %d", r.MaxResource, rep.MaxResource)
	}
	if rep.Feasible != r.Feasible {
		t.Errorf("served feasible %v != recomputed %v", r.Feasible, rep.Feasible)
	}
	if !r.Feasible && r.Outcome == OutcomeFeasible {
		t.Error("infeasible partition served with outcome feasible")
	}
	if !rep.Feasible && r.Outcome == OutcomeFeasible {
		t.Error("constraint-violating partition not flagged infeasible")
	}
}

func TestBadRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"malformed": `{"graph":`,
		"zero k":    ringBody(8, 0, 0, 0, ""),
		"huge k":    ringBody(8, 100, 0, 0, ""),
		"neg bmax":  ringBody(8, 2, -1, 0, ""),
	} {
		status, _ := postJob(t, ts, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, status)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := ringBody(24, 3, 1000, 1000, `"async":true,"options":{"max_cycles":4}`)
	status, env := postJob(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", status)
	}
	if env.JobID == "" || env.Result != nil {
		t.Fatalf("async envelope = %+v, want bare job id", env)
	}
	final := pollJob(t, ts, env.JobID)
	if final.Result == nil || final.Result.Outcome != OutcomeFeasible {
		t.Fatalf("final = %+v, want feasible result", final)
	}
	assertResultInvariants(t, body, final.Result)
}

// A settled job still answers polls, but holds neither the request nor the
// graph it solved, and its context is released.
func TestSettledJobKeepsOnlyResult(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	_, env := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true,"options":{"max_cycles":2}`))
	final := pollJob(t, ts, env.JobID)
	if final.Result == nil || final.Result.Outcome != OutcomeFeasible {
		t.Fatalf("final = %+v, want feasible result", final)
	}
	j, err := srv.Scheduler().Lookup(env.JobID)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	req, g := j.req, j.g
	j.mu.Unlock()
	if req != nil || g != nil {
		t.Fatalf("settled job retains req=%v graph=%v", req != nil, g != nil)
	}
	if j.runCtx.Err() == nil {
		t.Fatal("settled job's context is still live")
	}
	if got := j.Result(); got == nil || got.EdgeCut != final.Result.EdgeCut {
		t.Fatalf("settled job result = %+v, want the polled one", got)
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	var calls atomic.Int64
	srv, ts := newTestServer(t, Config{
		Workers: 1,
		Solver: func(ctx context.Context, g *graph.Graph, opts core.Options, _ *engine.Trace) (*core.Result, error) {
			calls.Add(1)
			return fakeResult(g, opts, false), nil
		},
	})
	body := ringBody(16, 2, 0, 0, "")
	if status, env := postJob(t, ts, body); status != 200 || env.Result.Cached {
		t.Fatalf("first solve: status %d cached %v", status, env.Result.Cached)
	}
	status, env := postJob(t, ts, body)
	if status != 200 || !env.Result.Cached {
		t.Fatalf("second solve: status %d cached %v, want cache hit", status, env.Result.Cached)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1", got)
	}
	// A different request (other seed) must miss.
	if _, env := postJob(t, ts, ringBody(16, 2, 0, 0, `"options":{"seed":9}`)); env.Result.Cached {
		t.Fatal("distinct request served from cache")
	}
	if calls.Load() != 2 {
		t.Fatalf("solver ran %d times, want 2", calls.Load())
	}
	hits, misses, _ := srv.Scheduler().Metrics().Counts()
	if hits != 1 || misses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestDuplicateInFlightCoalesce(t *testing.T) {
	gt := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, Solver: gatedSolver(gt)})
	body := ringBody(16, 2, 0, 0, `"async":true`)

	_, envA := postJob(t, ts, body)
	waitStarted(t, gt) // A is on the worker, holding the gate
	_, envB := postJob(t, ts, body)
	if envA.JobID == "" || envA.JobID != envB.JobID {
		t.Fatalf("duplicate submission got job %q, want coalesced onto %q", envB.JobID, envA.JobID)
	}
	// A distinct request must get its own job even while A is in flight.
	_, envC := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true,"options":{"seed":5}`))
	if envC.JobID == envA.JobID {
		t.Fatal("distinct request was wrongly coalesced")
	}

	close(gt.release)
	if final := pollJob(t, ts, envA.JobID); final.Result.Outcome != OutcomeFeasible {
		t.Fatalf("coalesced job finished %s", final.Result.Outcome)
	}
	if _, _, coalesced := srv.Scheduler().Metrics().Counts(); coalesced != 1 {
		t.Fatalf("coalesced counter = %d, want 1", coalesced)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	// Real solver, tiny deadline, big enough instance that the deadline
	// fires mid-search: the service must deliver the best-effort
	// partition explicitly flagged, never hang.
	_, ts := newTestServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(7))
	g, err := gen.RandomConnected(3000, 9000, gen.WeightRange{Lo: 1, Hi: 5}, gen.WeightRange{Lo: 1, Hi: 9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteJSON(&sb, g); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"graph":%s,"k":4,"bmax":1,"rmax":1,"timeout_ms":1,"options":{"max_cycles":1000}}`,
		strings.TrimSpace(sb.String()))
	status, env := postJob(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	r := env.Result
	if r == nil || r.Outcome != OutcomeDeadline {
		t.Fatalf("outcome = %+v, want deadline_exceeded", r)
	}
	if len(r.Parts) != 3000 {
		t.Fatalf("best-effort parts length = %d, want 3000", len(r.Parts))
	}
	if r.Feasible || len(r.Violations) == 0 {
		t.Fatalf("impossible constraints must yield a flagged-infeasible result: feasible=%v violations=%d",
			r.Feasible, len(r.Violations))
	}
	assertResultInvariants(t, body, r)
}

func TestCancelRunningJob(t *testing.T) {
	gt := newGate()
	_, ts := newTestServer(t, Config{Workers: 1, Solver: gatedSolver(gt)})
	_, env := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true`))
	waitStarted(t, gt)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+env.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	final := pollJob(t, ts, env.JobID)
	if final.Result.Outcome != OutcomeCancelled {
		t.Fatalf("outcome = %s, want cancelled", final.Result.Outcome)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gt := newGate()
	_, ts := newTestServer(t, Config{Workers: 1, Solver: gatedSolver(gt)})
	_, blocker := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true`))
	waitStarted(t, gt) // worker busy; the next job must queue
	_, queued := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true,"options":{"seed":5}`))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	close(gt.release)
	final := pollJob(t, ts, queued.JobID)
	if final.Result.Outcome != OutcomeCancelled {
		t.Fatalf("queued-then-cancelled outcome = %s, want cancelled", final.Result.Outcome)
	}
	if final.Result.Parts != nil {
		t.Fatal("never-started job must not carry a partition")
	}
	if blockerFinal := pollJob(t, ts, blocker.JobID); blockerFinal.Result.Outcome != OutcomeFeasible {
		t.Fatalf("blocker outcome = %s, want feasible", blockerFinal.Result.Outcome)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
	gt := newGate()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Solver: gatedSolver(gt)})
	postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true`))
	waitStarted(t, gt)
	postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true,"options":{"seed":2}`)) // fills the queue
	status, _ := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true,"options":{"seed":3}`))
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission status = %d, want 429", status)
	}
	close(gt.release)
}

func TestGracefulDrain(t *testing.T) {
	gt := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, Solver: gatedSolver(gt)})
	_, env := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true`))
	waitStarted(t, gt)

	drained := make(chan struct{})
	go func() {
		srv.Drain(10 * time.Second)
		close(drained)
	}()
	// Drain must flip healthz to 503/draining and refuse new work while
	// the in-flight job keeps running.
	waitFor(t, func() bool { return srv.Scheduler().Draining() })
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if status, _ := postJob(t, ts, ringBody(16, 2, 0, 0, `"options":{"seed":6}`)); status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain status = %d, want 503", status)
	}
	select {
	case <-drained:
		t.Fatal("drain returned while a job was still in flight")
	default:
	}

	// Release the solve: the drain must complete and the job must have
	// finished cleanly, not been cancelled.
	close(gt.release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
	if final := pollJob(t, ts, env.JobID); final.Result.Outcome != OutcomeFeasible {
		t.Fatalf("in-flight job drained with outcome %s, want feasible", final.Result.Outcome)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	gt := newGate() // never released: the job only ends via cancellation
	srv, ts := newTestServer(t, Config{Workers: 1, Solver: gatedSolver(gt)})
	_, env := postJob(t, ts, ringBody(16, 2, 0, 0, `"async":true`))
	waitStarted(t, gt)

	start := time.Now()
	srv.Drain(50 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %v, deadline did not bite", elapsed)
	}
	if final := pollJob(t, ts, env.JobID); final.Result.Outcome != OutcomeCancelled {
		t.Fatalf("straggler outcome = %s, want cancelled", final.Result.Outcome)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := ringBody(16, 2, 1000, 1000, `"options":{"max_cycles":2}`)
	postJob(t, ts, body)
	postJob(t, ts, body) // cache hit
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		`ppnd_jobs_total{outcome="feasible"} 1`,
		"ppnd_cache_hits_total 1",
		"ppnd_cache_misses_total 1",
		"ppnd_solve_seconds_count 1",
		"ppnd_queue_depth 0",
		"ppnd_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestServedResultsInvariant sweeps random instances through the live
// HTTP stack with the real solver and recomputes every served metric
// from scratch: the service-level counterpart of the pstate invariant
// harness.
func TestServedResultsInvariant(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	trials := 8
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < trials; i++ {
		n := 12 + rng.Intn(28)
		maxM := n * (n - 1) / 2
		m := n - 1 + rng.Intn(n)
		if m > maxM {
			m = maxM
		}
		g, err := gen.RandomConnected(n, m, gen.WeightRange{Lo: 1, Hi: 9}, gen.WeightRange{Lo: 1, Hi: 20}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := graph.WriteJSON(&sb, g); err != nil {
			t.Fatal(err)
		}
		k := 2 + rng.Intn(3)
		// Half the trials get satisfiable-ish bounds, half get tight ones
		// so both feasible and flagged-infeasible paths are exercised.
		bmax := int64(0)
		rmax := int64(0)
		if i%2 == 1 {
			bmax = 1 + int64(rng.Intn(50))
			rmax = 1 + int64(rng.Intn(40))
		}
		body := fmt.Sprintf(`{"graph":%s,"k":%d,"bmax":%d,"rmax":%d,"options":{"max_cycles":3,"seed":%d}}`,
			strings.TrimSpace(sb.String()), k, bmax, rmax, i+1)
		status, env := postJob(t, ts, body)
		if status != http.StatusOK {
			t.Fatalf("trial %d: status %d", i, status)
		}
		assertResultInvariants(t, body, env.Result)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
