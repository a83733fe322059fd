package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/server"
)

// ppnd_mix drives the ppnd HTTP service in-process: the daemon's defaults
// (queue 64, cache 256, result verification on) with one solve worker, on
// an httptest server, through one client limited to two connections.
//
// The traffic is synthetic. No ppnd traffic has been recorded, so the class
// shares, the arrival rate and the caller count below are assumptions,
// chosen so that every stage of the serving path does work in each window;
// they are not measured from, and do not stand for, real use.

const (
	ppndK = 4
	// warmSeed is the options seed of the warm-up bodies; fresh requests
	// count up from it, so every fresh body has its own cache key.
	warmSeed = 1
	// ppndConns bounds the client's connections and phase B's callers.
	ppndConns = 2
	// ppndRate is phase A's mean arrival rate per second.
	ppndRate = 30
	// closedLoopLen is the phase B request sequence drawn up front; it
	// outlasts any window at the service's capacity.
	closedLoopLen = 20000
)

var ppndRule = layerRule{
	zero: []string{"refine.batch_", "refine.replicate_", "stream.", "metrics.hyperedge_cut"},
	positive: []string{"server.decode_ms", "server.cache_key_ms", "server.encode_ms", "server.solve_ms.cold",
		"server.solve_ms.impossible", "server.latency_p50_ms.hit", "server.latency_p50_ms.cold",
		"server.cache_hit_frac", "server.capacity_rps", "loadgen.sent", "engine.refine_ms", "coarsen.levels"},
}

// reqClass is a ppnd_mix request class.
type reqClass int

const (
	classCold       reqClass = iota // a fresh graph+seed: one solve
	classHit                        // a byte-identical resend of a warm-up body: a cache hit
	classCoalesced                  // one of two identical fresh bodies due at once: one solve, one coalesced wait
	classImpossible                 // Rmax below the heaviest node: the solver burns every cycle
	numClasses
)

var classNames = [numClasses]string{"cold", "hit", "coalesced", "impossible"}

// classBlock is the assumed mix in exact proportions: every 20 consecutive
// requests hold 11 cold, 6 hit, 1 coalesced and 2 impossible ones
// (55/30/5/10%), shuffled, so the share of expensive requests in a window
// does not vary with the seed. With cold requests the majority, the
// workload's median latency falls among theirs.
var classBlock = func() []reqClass {
	var b []reqClass
	for c, n := range [numClasses]int{11, 6, 1, 2} {
		for i := 0; i < n; i++ {
			b = append(b, reqClass(c))
		}
	}
	return b
}()

// request names one POST /partition body: a pool graph, the options seed
// that makes it a fresh solve, and its class.
type request struct {
	class reqClass
	graph int
	seed  int64
	at    time.Duration // phase A: when it is due, from the phase start
}

// bodyKey identifies identical bodies, which must get identical answers.
type bodyKey struct {
	graph      int
	seed       int64
	impossible bool
}

func (q request) key() bodyKey {
	return bodyKey{graph: q.graph, seed: q.seed, impossible: q.class == classImpossible}
}

// mixer draws requests from shuffled class blocks: a hit resends one of
// the warm-up bodies, every other class gets the next fresh options seed
// on a random pool graph.
type mixer struct {
	rng        *rand.Rand
	pool, warm int
	nextSeed   int64
	block      []reqClass // the undrawn rest of the current block
}

func (m *mixer) next() request {
	if len(m.block) == 0 {
		m.block = append([]reqClass(nil), classBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	c := m.block[0]
	m.block = m.block[1:]
	if c == classHit {
		return request{class: c, graph: m.rng.Intn(m.warm), seed: warmSeed}
	}
	m.nextSeed++
	return request{class: c, graph: m.rng.Intn(m.pool), seed: m.nextSeed}
}

// openLoopSchedule draws Poisson arrivals at rate per second over dur. A
// coalesced draw is a pair of identical requests due at the same instant.
func openLoopSchedule(m *mixer, rate float64, dur time.Duration) []request {
	var out []request
	t := 0.0
	for {
		t += m.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		q := m.next()
		q.at = at
		out = append(out, q)
		if q.class == classCoalesced {
			out = append(out, q)
		}
	}
}

// response is one request's outcome as the client saw it.
type response struct {
	req     request
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// runOpenLoop sends each request when it is due, whatever is still in
// flight, and times it from its due time, so a stall charges every request
// that queued behind it. late is how far behind schedule each send began,
// in ms.
func runOpenLoop(reqs []request, send func(request) *response) (out []*response, late []float64) {
	out = make([]*response, len(reqs))
	late = make([]float64, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range reqs {
		due := start.Add(q.at)
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := send(q)
			rr.latency = time.Since(due)
			out[i] = rr
		}()
	}
	wg.Wait()
	return out, late
}

// runClosedLoop runs callers that each send their next request when the
// previous answer arrives, until dur has passed; a coalesced request is
// sent twice at once. It returns the answers and the elapsed time.
func runClosedLoop(seq []request, callers int, dur time.Duration, send func(request) *response) ([]*response, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []*response
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	timed := func(q request) *response {
		t := time.Now()
		rr := send(q)
		rr.latency = time.Since(t)
		return rr
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				q := seq[i]
				var got []*response
				if q.class == classCoalesced {
					got = make([]*response, 2)
					var twin sync.WaitGroup
					twin.Add(1)
					go func() {
						defer twin.Done()
						got[1] = timed(q)
					}()
					got[0] = timed(q)
					twin.Wait()
				} else {
					got = []*response{timed(q)}
				}
				mu.Lock()
				out = append(out, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// ppndGraph is one pool graph with its request body up to the graph.
type ppndGraph struct {
	g      *graph.Graph
	prefix []byte // `{"graph":{...}`
	cons   metrics.Constraints
}

func (pg *ppndGraph) constraints(q request) metrics.Constraints {
	c := pg.cons
	if q.class == classImpossible {
		c.Rmax = pg.g.MaxNodeWeight() - 1
	}
	return c
}

func (pg *ppndGraph) body(q request) []byte {
	c := pg.constraints(q)
	return fmt.Appendf(append([]byte(nil), pg.prefix...), `,"k":%d,"bmax":%d,"rmax":%d,"options":{"seed":%d}}`,
		ppndK, c.Bmax, c.Rmax, q.seed)
}

func graphSpec(g *graph.Graph) server.GraphSpec {
	spec := server.GraphSpec{Nodes: make([]server.NodeSpec, g.NumNodes())}
	for u := range spec.Nodes {
		spec.Nodes[u] = server.NodeSpec{ID: u, Weight: g.NodeWeight(graph.Node(u))}
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, server.EdgeSpec{U: int(e.U), V: int(e.V), Weight: e.Weight})
	}
	return spec
}

// solveLog is the traced run's pass-through solver: it times each solve
// the scheduler runs, split by whether the answer was feasible.
type solveLog struct {
	mu               sync.Mutex
	cold, impossible []float64
}

func (l *solveLog) solve(ctx context.Context, g *graph.Graph, opts core.Options, tr *engine.Trace) (*core.Result, error) {
	t := time.Now()
	res, err := core.PartitionTraceCtx(ctx, g, opts, tr)
	d := ms(time.Since(t))
	if err == nil {
		l.mu.Lock()
		if res.Feasible {
			l.cold = append(l.cold, d)
		} else {
			l.impossible = append(l.impossible, d)
		}
		l.mu.Unlock()
	}
	return res, err
}

// ppndEnv is a running service with its graph pool and client.
type ppndEnv struct {
	pool   []*ppndGraph
	sched  *server.Scheduler
	ts     *httptest.Server
	client *http.Client
	solves *solveLog // traced runs only
}

// buildPPND starts the service and builds its graph pool. The pool is the
// same at every seed, so the warm-up answers, whose mean cut is the
// workload's cut, are too (see fixedSeed); the seed draws the traffic.
func buildPPND(r *run) (*ppndEnv, func(), error) {
	rng := rand.New(rand.NewSource(fixedSeed))
	e := &ppndEnv{pool: make([]*ppndGraph, r.scale.ppndPool)}
	for i := range e.pool {
		g, err := gen.RandomConnected(r.scale.ppndN, 3*r.scale.ppndN, gen.WeightRange{Lo: 10, Hi: 100},
			gen.WeightRange{Lo: 1, Hi: 20}, rng)
		if err != nil {
			return nil, nil, err
		}
		spec, err := json.Marshal(graphSpec(g))
		if err != nil {
			return nil, nil, err
		}
		e.pool[i] = &ppndGraph{g: g, prefix: append([]byte(`{"graph":`), spec...), cons: caps(g, ppndK, 1.15, true)}
	}
	cfg := server.Config{Workers: 1}
	if r.trace {
		e.solves = &solveLog{}
		cfg.Solver = e.solves.solve
	}
	e.sched = server.NewScheduler(cfg, nil)
	e.ts = httptest.NewServer(server.New(e.sched, log.New(os.Stderr, "ppnd: ", 0)))
	e.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: ppndConns, MaxIdleConnsPerHost: ppndConns, DisableCompression: true},
		Timeout:   time.Minute,
	}
	return e, e.close, nil
}

func (e *ppndEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	e.sched.Close()
}

func (e *ppndEnv) send(q request) *response {
	rr := &response{req: q}
	resp, err := e.client.Post(e.ts.URL+"/partition", "application/json", bytes.NewReader(e.pool[q.graph].body(q)))
	if err != nil {
		rr.err = err
		return rr
	}
	defer resp.Body.Close()
	rr.status = resp.StatusCode
	rr.body, rr.err = io.ReadAll(resp.Body)
	return rr
}

// envelope is the JSON shape of a served job.
type envelope struct {
	JobID  string            `json:"job_id,omitempty"`
	State  server.JobState   `json:"state"`
	Result *server.JobResult `json:"result,omitempty"`
}

// verifier checks served answers: each against a recomputation, and every
// answer to the same body against the first.
type verifier struct {
	env    *ppndEnv
	hashes map[bodyKey]uint64
}

func (v *verifier) check(rr *response) (*server.JobResult, error) {
	q := rr.req
	if rr.err != nil {
		return nil, fmt.Errorf("%s request: %w", classNames[q.class], rr.err)
	}
	if rr.status != http.StatusOK {
		return nil, fmt.Errorf("%s request: status %d: %s", classNames[q.class], rr.status, bytes.TrimSpace(rr.body))
	}
	var env envelope
	if err := json.Unmarshal(rr.body, &env); err != nil {
		return nil, fmt.Errorf("%s request: %w", classNames[q.class], err)
	}
	jr := env.Result
	if env.State != server.StateDone || jr == nil {
		return nil, fmt.Errorf("%s request: job state %q without a result", classNames[q.class], env.State)
	}
	pg := v.env.pool[q.graph]
	if err := checkJobResult(pg.g, ppndK, pg.constraints(q), jr); err != nil {
		return nil, fmt.Errorf("%s request: %w", classNames[q.class], err)
	}
	if want := q.class != classImpossible; jr.Feasible != want {
		return nil, fmt.Errorf("%s request: feasible=%v, want %v: %s", classNames[q.class], jr.Feasible, want, jr.Message)
	}
	h := hashInts(jr.Parts)
	if first, ok := v.hashes[q.key()]; ok && first != h {
		return nil, fmt.Errorf("%s request: answer differs from an earlier answer to the same body", classNames[q.class])
	}
	v.hashes[q.key()] = h
	return jr, nil
}

// startSampler polls the scheduler's queue depth until the returned stop
// function is called; stop returns the largest depth seen.
func startSampler(s *server.Scheduler) func() int {
	var maxDepth atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				if d := int64(s.QueueDepth()); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return int(maxDepth.Load())
	}
}

// runPPNDMix: warm-up, then phase A (open loop, seeded Poisson arrivals)
// for half the window and phase B (closed loop, two callers) for the
// other half.
func runPPNDMix(r *run) error {
	env, closeEnv, err := timeSetup(r, func() (*ppndEnv, func(), error) { return buildPPND(r) })
	if err != nil {
		return err
	}
	defer closeEnv()

	// The warm-up solves the bodies hits resend, so every hit finds its
	// answer cached, plus two impossible bodies.
	var warm []*response
	for i := 0; i < r.scale.ppndWarm; i++ {
		warm = append(warm, env.send(request{class: classCold, graph: i, seed: warmSeed}))
	}
	for i := 0; i < 2; i++ {
		warm = append(warm, env.send(request{class: classImpossible, graph: i, seed: warmSeed}))
	}
	m := &mixer{rng: rand.New(rand.NewSource(r.seed)), pool: len(env.pool), warm: r.scale.ppndWarm, nextSeed: warmSeed}
	durA := r.window / 2
	schedA := openLoopSchedule(m, ppndRate, durA)
	seqB := make([]request, closedLoopLen)
	for i := range seqB {
		seqB[i] = m.next()
	}

	c0 := readCounters()
	stopSampler := func() int { return 0 }
	if r.trace {
		stopSampler = startSampler(env.sched)
	}
	a, late := runOpenLoop(schedA, env.send)
	b, elapsedB := runClosedLoop(seqB, ppndConns, r.window-durA, env.send)
	queueMax := stopSampler()
	c1 := readCounters()

	v := &verifier{env: env, hashes: map[bodyKey]uint64{}}
	check := func(rs []*response) []*server.JobResult {
		out := make([]*server.JobResult, len(rs))
		for i, rr := range rs {
			jr, err := v.check(rr)
			r.op(err)
			out[i] = jr
		}
		return out
	}
	warmRes := check(warm)
	check(a)
	bRes := check(b)

	var latA []float64
	byClass := make([][]float64, numClasses)
	for _, rr := range a {
		latA = append(latA, ms(rr.latency))
		byClass[rr.req.class] = append(byClass[rr.req.class], ms(rr.latency))
	}
	var cuts []float64
	for i, rr := range warm {
		if rr.req.class == classCold && warmRes[i] != nil {
			cuts = append(cuts, float64(warmRes[i].EdgeCut))
		}
	}
	okB := 0
	for _, jr := range bRes {
		if jr != nil {
			okB++
		}
	}
	ops := len(a) + len(b)
	if !r.trace {
		if len(cuts) == 0 {
			return errors.New("no warm-up request succeeded")
		}
		r.set("latency_p50_ms", median(latA), len(latA))
		r.set("cut", sum(cuts)/float64(len(cuts)), len(cuts))
		r.set("alloc_mb_per_op", allocMBPerOp(c0, c1, ops), ops)
		r.set("peak_rss_mb", peakRSSMB(), 0)
		return nil
	}

	for c, xs := range byClass {
		r.set("server.latency_p50_ms."+classNames[c], median(xs), len(xs))
	}
	r.set("server.latency_p95_ms", tail(latA, 95), len(latA))
	r.set("server.capacity_rps", float64(okB)/elapsedB.Seconds(), len(b))
	r.set("loadgen.late_p95_ms", tail(late, 95), len(late))
	r.set("loadgen.sent", float64(len(a)), 0)
	r.set("server.queue_depth_max", float64(queueMax), 0)
	setPerSolve(r, c0, c1, ops)
	env.solves.mu.Lock()
	r.set("server.solve_ms.cold", median(env.solves.cold), len(env.solves.cold))
	r.set("server.solve_ms.impossible", median(env.solves.impossible), len(env.solves.impossible))
	env.solves.mu.Unlock()
	var bodyBytes, bodies float64
	for _, rs := range [][]*response{a, b} {
		for _, rr := range rs {
			if rr.status == http.StatusOK {
				bodyBytes += float64(len(rr.body))
				bodies++
			}
		}
	}
	r.set("server.response_kb", ratio(bodyBytes, bodies)/1024, int(bodies))
	if err := scrapeMetrics(r, env); err != nil {
		return err
	}
	if err := replayServer(r, env, warm, warmRes); err != nil {
		return err
	}
	return probeEngine(r, env)
}

// scrapeMetrics reads the service's own counters from GET /metrics.
func scrapeMetrics(r *run, env *ppndEnv) error {
	resp, err := env.client.Get(env.ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	samples, err := parsePromText(resp.Body)
	if err != nil {
		return err
	}
	hits, misses := samples["ppnd_cache_hits_total"], samples["ppnd_cache_misses_total"]
	r.set("server.cache_hit_frac", ratio(hits, hits+misses), int(hits+misses))
	r.set("server.coalesced_total", samples["ppnd_coalesced_total"], 0)
	r.set("server.shed_total", sumFamily(samples, "ppnd_shed_total"), 0)
	return nil
}

// replayBodies is how many warm-up bodies the serving-layer replay uses.
const replayBodies = 8

// replayServer times the serving layer's own steps on warm-up bodies:
// request decode, cache-key hashing and the indented response encode.
func replayServer(r *run, env *ppndEnv, warm []*response, results []*server.JobResult) error {
	var decode, key, encode []float64
	for i, rr := range warm {
		if len(decode) == replayBodies {
			break
		}
		if results[i] == nil || rr.req.class != classCold {
			continue
		}
		body := env.pool[rr.req.graph].body(rr.req)
		var (
			req *server.JobRequest
			g   *graph.Graph
			err error
		)
		decode = append(decode, timeReps(replayBudget, func() { req, g, err = server.DecodeJobRequest(bytes.NewReader(body)) }))
		if err != nil {
			return err
		}
		key = append(key, timeReps(replayBudget, func() { sinkInt += int64(len(req.CacheKey(g))) }))
		encode = append(encode, timeReps(replayBudget, func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(envelope{State: server.StateDone, Result: results[i]})
		}))
		if err != nil {
			return err
		}
	}
	r.set("server.decode_ms", median(decode), len(decode))
	r.set("server.cache_key_ms", median(key), len(key))
	r.set("server.encode_ms", median(encode), len(encode))
	return nil
}

// probeEngineCases is how many pool graphs the traced ppnd run solves
// through the instrumented engine, with the options a cold request gets.
const probeEngineCases = 4

// probeEngine runs the solve-workload layer probes on cold-request
// problems, for a tenth of the window.
func probeEngine(r *run, env *ppndEnv) error {
	var cases []solveCase
	for i := 0; i < min(probeEngineCases, len(env.pool)); i++ {
		body := env.pool[i].body(request{class: classCold, graph: i, seed: warmSeed})
		req, g, err := server.DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return err
		}
		cases = append(cases, solveCase{name: fmt.Sprintf("ppnd-graph-%d", i), g: g, opts: req.CoreOptions()})
	}
	refs, err := referenceSolves(r, cases)
	if err != nil {
		return err
	}
	traceEngine(r, cases, refs, r.window/10)
	return replayLayers(r, cases, refs)
}
