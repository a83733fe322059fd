package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppnpart/internal/chaos"
	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/journal"
)

// panickySolver panics on every full-configuration attempt and succeeds
// only under the degraded retry configuration (serial, pruning off) —
// the shape of a concurrency bug in the parallel search.
func panickySolver(ctx context.Context, g *graph.Graph, opts core.Options, _ *engine.Trace) (*core.Result, error) {
	if opts.Parallelism != 1 || opts.Prune != engine.PruneOff {
		panic("injected solver bug in parallel search")
	}
	return fakeResult(g, opts, false), nil
}

// alwaysPanicSolver panics under every configuration.
func alwaysPanicSolver(ctx context.Context, g *graph.Graph, opts core.Options, _ *engine.Trace) (*core.Result, error) {
	panic("solver is irreparably broken for this graph")
}

// TestChaosPanicIsolationDegradedRetry: a panicking parallel solve is
// contained, retried with the degraded configuration, and still produces
// a correct result — the worker and the daemon survive.
func TestChaosPanicIsolationDegradedRetry(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Solver: panickySolver})
	body := ringBody(16, 2, 0, 0, "")
	status, env := postJob(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if env.State != StateDone || env.Result == nil || env.Result.Outcome != OutcomeFeasible {
		t.Fatalf("envelope = %+v, want done/feasible via degraded retry", env)
	}
	assertResultInvariants(t, body, env.Result)
	_, panics, degraded, _ := srv.Scheduler().Metrics().Resilience()
	if panics != 1 || degraded != 1 {
		t.Fatalf("panics=%d degraded=%d, want 1/1", panics, degraded)
	}
	// The daemon keeps serving: an unrelated request succeeds.
	if status, env := postJob(t, ts, ringBody(12, 3, 0, 0, "")); status != http.StatusOK || env.Result == nil {
		t.Fatalf("daemon unhealthy after contained panic: %d %+v", status, env)
	}
}

// TestChaosQuarantineAfterRepeatedPanics: a graph that panics under every
// configuration fails its job (typed outcome) and its hash is quarantined;
// resubmissions are refused with 422 while other graphs keep solving.
func TestChaosQuarantineAfterRepeatedPanics(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QuarantineThreshold: 2, Solver: alwaysPanicSolver})
	body := ringBody(16, 2, 0, 0, "")
	status, env := postJob(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (failed job still delivered)", status)
	}
	if env.State != StateFailed || env.Result == nil || env.Result.Outcome != OutcomePanic {
		t.Fatalf("envelope = %+v, want failed job with panic outcome", env)
	}
	if !strings.Contains(env.Result.Message, "panicked") {
		t.Fatalf("panic message missing: %q", env.Result.Message)
	}
	if n := srv.Scheduler().QuarantinedGraphs(); n != 1 {
		t.Fatalf("QuarantinedGraphs = %d, want 1", n)
	}
	// Resubmission of the quarantined graph is refused up front.
	resp, err := http.Post(ts.URL+"/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined resubmission status = %d, want 422", resp.StatusCode)
	}
	_, panics, _, _ := srv.Scheduler().Metrics().Resilience()
	if panics != 2 {
		t.Fatalf("worker panics = %d, want 2 (first attempt + degraded retry)", panics)
	}
	// The gauge reaches /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"ppnd_quarantined_graphs 1", "ppnd_worker_panics_total 2", "ppnd_degraded_retries_total 1"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestChaosEngineFailpointPanic drives a real solve through an armed
// engine-stage failpoint: the injected panic is contained, the degraded
// retry (failpoint exhausted) completes, and the result is correct.
func TestChaosEngineFailpointPanic(t *testing.T) {
	t.Cleanup(chaos.Disarm)
	if err := chaos.ArmSpec("engine.coarsen:panic=injected stage failure"); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	body := ringBody(24, 2, 0, 0, `"options":{"seed":1,"max_cycles":2}`)
	status, env := postJob(t, ts, body)
	if status != http.StatusOK || env.Result == nil {
		t.Fatalf("status = %d env = %+v", status, env)
	}
	if env.Result.Outcome != OutcomeFeasible {
		t.Fatalf("outcome = %s (%s), want feasible via degraded retry", env.Result.Outcome, env.Result.Message)
	}
	assertResultInvariants(t, body, env.Result)
	if chaos.Fired("engine.coarsen") != 1 {
		t.Fatalf("failpoint fired %d times, want 1", chaos.Fired("engine.coarsen"))
	}
	_, panics, degraded, _ := srv.Scheduler().Metrics().Resilience()
	if panics != 1 || degraded != 1 {
		t.Fatalf("panics=%d degraded=%d, want 1/1", panics, degraded)
	}
}

// TestWatermarkAdmission exercises per-priority load shedding: low sheds
// at half capacity, normal near capacity, high only at the bound — every
// rejection is a 429 with a Retry-After hint, and every accepted job
// settles once the gate opens (zero dropped accepted jobs).
func TestWatermarkAdmission(t *testing.T) {
	gt := newGate()
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Solver: gatedSolver(gt)})

	submit := func(seed int, priority string) (*http.Response, jobEnvelope) {
		t.Helper()
		body := ringBody(16, 2, 0, 0, fmt.Sprintf(`"async":true,"priority":%q,"options":{"seed":%d}`, priority, seed))
		resp, err := http.Post(ts.URL+"/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env jobEnvelope
		raw, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(raw, &env)
		return resp, env
	}

	// Occupy the single worker so submissions pile up in the queue.
	if resp, _ := submit(1, PriorityNormal); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission status = %d", resp.StatusCode)
	}
	waitStarted(t, gt)

	var accepted []string
	seed := 2
	// Fill the queue to the normal watermark (QueueDepth-QueueDepth/8 = 7).
	for srv.Scheduler().QueueDepth() < 7 {
		resp, env := submit(seed, PriorityNormal)
		seed++
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d status = %d with queue depth %d", seed-1, resp.StatusCode, srv.Scheduler().QueueDepth())
		}
		accepted = append(accepted, env.JobID)
	}

	// Low and normal are now shed; high still fits.
	for _, prio := range []string{PriorityLow, PriorityNormal} {
		resp, _ := submit(seed, prio)
		seed++
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s priority at watermark: status = %d, want 429", prio, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s rejection missing Retry-After header", prio)
		}
	}
	respHigh, envHigh := submit(seed, PriorityHigh)
	seed++
	if respHigh.StatusCode != http.StatusAccepted {
		t.Fatalf("high priority below hard bound: status = %d, want 202", respHigh.StatusCode)
	}
	accepted = append(accepted, envHigh.JobID)
	// Queue is now at the hard bound: even high priority sheds.
	respFull, _ := submit(seed, PriorityHigh)
	if respFull.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("high priority at hard bound: status = %d, want 429", respFull.StatusCode)
	}

	if srv.Scheduler().Metrics().ShedCount(PriorityLow) == 0 ||
		srv.Scheduler().Metrics().ShedCount(PriorityNormal) == 0 ||
		srv.Scheduler().Metrics().ShedCount(PriorityHigh) == 0 {
		t.Fatal("shed counters did not move for every priority class")
	}

	// Zero dropped accepted jobs: everything that got a 202 settles.
	close(gt.release)
	for _, id := range accepted {
		env := pollJob(t, ts, id)
		if env.Result == nil || env.Result.Outcome != OutcomeFeasible {
			t.Fatalf("accepted job %s did not settle feasibly: %+v", id, env)
		}
	}
}

// TestRetryAfterScalesWithBacklog: the hint derives from the solve-time
// EWMA, so a server that has observed slow solves tells clients to back
// off longer.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, QueueDepth: 4}, nil)
	defer s.Close()
	s.observeSolveTime(5 * time.Second)
	s.mu.Lock()
	hint := s.retryAfterLocked()
	s.mu.Unlock()
	if hint < 5*time.Second {
		t.Fatalf("retry hint %v ignores the 5s EWMA", hint)
	}
	if hint > 60*time.Second {
		t.Fatalf("retry hint %v exceeds the clamp", hint)
	}
	if got := s.SolveEWMA(); got != 5*time.Second {
		t.Fatalf("SolveEWMA = %v", got)
	}
}

// TestChaosJournalRecoveryReplaysPending: submission records whose jobs
// never settled are replayed on startup under their original ids, the
// replayed results are bit-identical to a direct solve (determinism), and
// settling writes the terminal records so a second recovery finds nothing.
func TestChaosJournalRecoveryReplaysPending(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	body5 := ringBody(16, 2, 1000, 1000, `"async":true,"options":{"seed":3}`)
	body7 := ringBody(12, 3, 0, 0, `"async":true,"options":{"seed":4}`)

	// Act 1: a daemon accepts two async jobs and is killed before either
	// settles — the journal holds submit records with no terminal records.
	j, _, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for id, body := range map[string]string{"job-5": body5, "job-7": body7} {
		req, g, derr := DecodeJobRequest(strings.NewReader(body))
		if derr != nil {
			t.Fatal(derr)
		}
		raw, _ := json.Marshal(req)
		if err := j.Append(journal.Record{Type: journal.TypeSubmit, JobID: id, Key: req.CacheKey(g), Request: raw}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Act 2: restart — reopen the journal, recover, and let the real
	// solver replay both jobs.
	j2, recs, dropped, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d bytes on clean reopen", dropped)
	}
	pending := journal.Pending(recs)
	if len(pending) != 2 {
		t.Fatalf("Pending = %d records, want 2", len(pending))
	}
	s := NewScheduler(Config{Workers: 2, Journal: j2}, nil)
	n, err := s.Recover(pending)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	if rec, _, _, _ := s.Metrics().Resilience(); rec != 2 {
		t.Fatalf("recovered metric = %d, want 2", rec)
	}
	for id, body := range map[string]string{"job-5": body5, "job-7": body7} {
		job, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("recovered job %s not addressable: %v", id, err)
		}
		select {
		case <-job.Done():
		case <-time.After(20 * time.Second):
			t.Fatalf("recovered job %s never settled", id)
		}
		res := job.Result()
		if res == nil || res.Outcome != OutcomeFeasible {
			t.Fatalf("recovered job %s result = %+v", id, res)
		}
		// Determinism: the replayed result is bit-identical to a direct
		// solve of the same request.
		req, g, _ := DecodeJobRequest(strings.NewReader(body))
		direct, derr := core.PartitionCtx(context.Background(), g, req.CoreOptions())
		if derr != nil {
			t.Fatal(derr)
		}
		if len(direct.Parts) != len(res.Parts) {
			t.Fatalf("replayed parts length %d != direct %d", len(res.Parts), len(direct.Parts))
		}
		for u := range direct.Parts {
			if direct.Parts[u] != res.Parts[u] {
				t.Fatalf("job %s: replayed partition diverges from direct solve at node %d", id, u)
			}
		}
	}
	// New submissions never collide with recovered ids.
	req, g, _ := DecodeJobRequest(strings.NewReader(ringBody(8, 2, 0, 0, `"async":true`)))
	job, _, _, err := s.Submit(req, g)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "job-5" || job.ID == "job-7" {
		t.Fatalf("fresh job reused a recovered id: %s", job.ID)
	}
	<-job.Done()
	s.Close()
	j2.Close()

	// Act 3: a third open finds every job settled — nothing replays.
	j3, recs, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if pend := journal.Pending(recs); len(pend) != 0 {
		t.Fatalf("after settle, %d records still pending: %+v", len(pend), pend)
	}
}

// TestJournalAppendFailureRefusesJob: when the durability barrier cannot
// be met (fsync failpoint), the async submission is withdrawn instead of
// acknowledged — no false crash-safety promise.
func TestJournalAppendFailureRefusesJob(t *testing.T) {
	t.Cleanup(chaos.Disarm)
	path := filepath.Join(t.TempDir(), "wal")
	j, _, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// The gate stays shut until the refused Submit returns: a worker that
	// settled the job first would spend the one-shot fsync failure on its
	// Done record instead of the submission's.
	gt := newGate()
	s := NewScheduler(Config{Workers: 1, Journal: j, Solver: gatedSolver(gt)}, nil)
	defer s.Close()

	if err := chaos.ArmSpec("journal.fsync:error=disk detached"); err != nil {
		t.Fatal(err)
	}
	req, g, _ := DecodeJobRequest(strings.NewReader(ringBody(16, 2, 0, 0, `"async":true`)))
	_, _, _, err = s.Submit(req, g)
	if !errors.Is(err, ErrJournalAppend) {
		t.Fatalf("submit under fsync failure = %v, want ErrJournalAppend", err)
	}
	chaos.Disarm()
	if _, _, _, jerrs := s.Metrics().Resilience(); jerrs == 0 {
		t.Fatal("journal error counter did not move")
	}
	// The same submission succeeds once the disk recovers.
	close(gt.release)
	req2, g2, _ := DecodeJobRequest(strings.NewReader(ringBody(16, 2, 0, 0, `"async":true,"options":{"seed":9}`)))
	job, _, _, err := s.Submit(req2, g2)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
}

// TestReadyzDistinctFromHealthz: readiness is false while recovering and
// while draining; liveness only flips on drain.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}
	srv.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while recovering = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while recovering = %d, want 200 (alive!)", got)
	}
	srv.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", got)
	}
	srv.Drain(100 * time.Millisecond)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining = %d, want 503", got)
	}
}

// TestMetricsExposeResilienceCounters: the new counters are present in
// the exposition even before they move.
func TestMetricsExposeResilienceCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, name := range []string{
		"ppnd_recovered_jobs_total",
		"ppnd_worker_panics_total",
		"ppnd_degraded_retries_total",
		"ppnd_journal_errors_total",
		"ppnd_quarantined_graphs",
		"ppnd_solve_ewma_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}
