package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// scoreDirect is score as it stood before the penalty memo and the
// bandwidth early-out: both powers of the imbalance penalty computed by
// math.Pow, and the bandwidth-excess delta, for every candidate part.
func (s *streamer) scoreDirect(p int, w int64, from int, r *pstate.Row) float64 {
	load := s.res[p]
	if p == from {
		load -= w
	}
	sc := float64(r.W[p])
	if s.alpha > 0 {
		sc -= s.alpha * (math.Pow(float64(load+w), s.gamma) - math.Pow(float64(load), s.gamma))
	}
	if d := r.BandwidthDelta(s.bw, s.cons.Bmax, from, p); d != 0 {
		sc -= s.bwBase * float64(d)
	}
	return sc
}

// pickDirect is the reference chooser: pick over scoreDirect, ignoring
// the memo and bwLive. The production chooser must reproduce its every
// choice.
func (s *streamer) pickDirect(w int64, from int, r *pstate.Row, _ *powMemo) int {
	best, bestScore := from, math.Inf(-1)
	if from >= 0 {
		bestScore = s.scoreDirect(from, w, from, r)
	}
	for p := 0; p < s.k; p++ {
		if p == from {
			continue
		}
		if lim := s.cons.RmaxFor(p); lim > 0 && s.res[p]+w > lim {
			continue
		}
		if sc := s.scoreDirect(p, w, from, r); sc > bestScore {
			best, bestScore = p, sc
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for p := 1; p < s.k; p++ {
		if s.res[p] < s.res[best] {
			best = p
		}
	}
	return best
}

// partitionWith runs the streamer on g with the given chooser and returns
// a result that owns its Parts.
func partitionWith(t *testing.T, g *graph.Graph, opts Options, choose chooser) *Result {
	t.Helper()
	if err := opts.validate(); err != nil {
		t.Fatal(err)
	}
	ws := arena.Get()
	defer arena.Put(ws)
	res, err := run(context.Background(), ws, g.ToCSR(), opts, choose)
	if err != nil {
		t.Fatal(err)
	}
	res.Parts = append([]int(nil), res.Parts...)
	return res
}

// memoGraph draws a connected random graph whose node weights span
// [0, 100000]: wider than the memo's 1<<powMemoBits slots, so the loads
// near the part totals collide and slots evict, and about one node in
// eight weighs zero.
func memoGraph(rng *rand.Rand, n int) *graph.Graph {
	const span = 100000
	w := make([]int64, n)
	for i := range w {
		if rng.Intn(8) > 0 {
			w[i] = int64(rng.Intn(span + 1))
		}
	}
	w[0], w[1] = 0, span
	g := graph.NewWithWeights(w)
	for u := 1; u < n; u++ {
		g.MustAddEdge(graph.Node(rng.Intn(u)), graph.Node(u), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

// slackThenBinding is a Bmax no vertex can reach at the start of the
// initial stream (every pair total is 0 and no vertex's affinity exceeds
// its weighted degree) but well below the pair totals a K-way stream
// builds, so bwLive turns true partway through the pass.
func slackThenBinding(g *graph.Graph) metrics.Constraints {
	var maxDeg int64
	for u := 0; u < g.NumNodes(); u++ {
		maxDeg = max(maxDeg, g.WeightedDegree(graph.Node(u)))
	}
	return metrics.Constraints{Bmax: maxDeg}
}

// liveSwitch runs the initial stream only, with the reference chooser,
// and reports bwLive for the first and for the last vertex streamed.
func liveSwitch(t *testing.T, g *graph.Graph, opts Options) (first, last bool) {
	t.Helper()
	var seen []bool
	opts.MaxIterations = -1
	partitionWith(t, g, opts, func(s *streamer, w int64, from int, r *pstate.Row, memo *powMemo) int {
		seen = append(seen, s.bwLive(r))
		return s.pickDirect(w, from, r, memo)
	})
	return seen[0], seen[len(seen)-1]
}

// TestMemoChooserMatchesDirect is the oracle for the memo and the
// bandwidth early-out: on graphs whose weight span evicts memo slots,
// the production chooser and the direct reference (math.Pow and the
// row's BandwidthDelta on every candidate) produce the same assignment
// and the same per-pass trajectory, bit for bit, across gamma, stream order,
// constraints and worker counts. The constraint cases are no bound, the
// loose bounds, a tight Rmax and Bmax, and a Bmax that is slack at the
// start of the initial stream and binds within it.
func TestMemoChooserMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := 4
	if testing.Short() {
		graphs = 2
	}
	for gi := 0; gi < graphs; gi++ {
		n := 300 + rng.Intn(500)
		g := memoGraph(rng, n)
		if span := g.MaxNodeWeight(); span <= 1<<powMemoBits {
			t.Fatalf("graph %d: weight span %d does not exceed the %d memo slots", gi, span, 1<<powMemoBits)
		}
		k := 2 + rng.Intn(7)
		cons := []metrics.Constraints{{}, looseConstraints(g, k), {
			Rmax: g.TotalNodeWeight() / int64(k),
			Bmax: 1 + g.TotalEdgeWeight()/int64(8*k),
		}, slackThenBinding(g)}
		if first, last := liveSwitch(t, g, Options{K: k, Constraints: cons[3]}); first || !last {
			t.Fatalf("graph %d: slack-then-binding Bmax %d: bwLive first %v, last %v; want false, true",
				gi, cons[3].Bmax, first, last)
		}
		for _, gamma := range []float64{1, 1.5, 2.7} {
			for ci, c := range cons {
				for _, order := range []Order{OrderNatural, OrderShuffle} {
					for _, workers := range []int{1, 2, 3, 8} {
						opts := Options{K: k, Constraints: c, Gamma: gamma, Order: order,
							Workers: workers, Seed: int64(gi + 1)}
						name := fmt.Sprintf("g%d/k%d/gamma%v/cons%d/order%d/w%d", gi, k, gamma, ci, order, workers)
						want := partitionWith(t, g, opts, (*streamer).pickDirect)
						got := partitionWith(t, g, opts, (*streamer).pick)
						if !reflect.DeepEqual(got.Parts, want.Parts) {
							t.Fatalf("%s: production chooser changed the assignment", name)
						}
						if !reflect.DeepEqual(got.Iters, want.Iters) {
							t.Fatalf("%s: production chooser changed the trajectory:\n%+v\nvs\n%+v", name, got.Iters, want.Iters)
						}
					}
				}
			}
		}
	}
}

// TestPowMemoCollisionsAndZero pins the memo's lookup contract: every
// answer has the bits of the direct math.Pow call, whether it hits,
// misses, or evicts a colliding key; the zeroed memo answers key 0 with
// +0 before any store; and the table is shared, so a load stored while
// scoring one part answers for another part at the same load.
func TestPowMemoCollisionsAndZero(t *testing.T) {
	slots := int64(1 << powMemoBits)
	for _, gamma := range []float64{1, 1.5, 2.7} {
		ws := &arena.Workspace{}
		m := newPowMemo(ws, gamma)
		check := func(x int64) {
			t.Helper()
			got, want := m.pow(x), math.Pow(float64(x), gamma)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gamma %v: pow(%d) = %v (bits %x), want %v (bits %x)",
					gamma, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// Key 0 on fresh storage: the zero slot is already Pow(0, gamma).
		check(0)
		// Keys that share slot 0 evict each other and must recompute.
		for round := 0; round < 3; round++ {
			for _, x := range []int64{0, slots, 2 * slots, 0, 7 * slots} {
				check(x)
			}
		}
		// Dense consecutive keys fill the table without collisions, then hit.
		for x := int64(1000); x < 1000+slots; x++ {
			check(x)
		}
		for x := int64(1000); x < 1000+slots; x++ {
			check(x)
		}

		// One table for every part: parts 0 and 1 carry the same load and
		// part 2 a load on the same slot. Part 0 stores the load's power,
		// part 1 must read that very slot, and part 2 evicts it.
		const w, load = 7, 123456
		s := &streamer{k: 3, gamma: gamma, alpha: 1, res: []int64{load, load, load + slots}}
		r := &pstate.Row{W: make([]int64, 3)}
		slot := load & (slots - 1)
		sc0 := s.score(0, w, -1, r, m, false)
		if m.keys[slot] != load {
			t.Fatalf("gamma %v: scoring part 0 left key %d in slot %d, want %d", gamma, m.keys[slot], slot, load)
		}
		stored := m.vals[slot]
		m.vals[slot] = -1 // a sentinel only a hit on the stored slot can return
		if got := m.pow(load); got != -1 {
			t.Fatalf("gamma %v: load %d recomputed (%v) instead of reading the shared slot", gamma, load, got)
		}
		m.vals[slot] = stored
		sc1 := s.score(1, w, -1, r, m, false)
		if math.Float64bits(sc0) != math.Float64bits(sc1) ||
			math.Float64bits(sc1) != math.Float64bits(s.scoreDirect(1, w, -1, r)) {
			t.Fatalf("gamma %v: part 1 scored %v, part 0 %v, direct %v", gamma, sc1, sc0, s.scoreDirect(1, w, -1, r))
		}
		if got, want := s.score(2, w, -1, r, m, false), s.scoreDirect(2, w, -1, r); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("gamma %v: colliding part 2 scored %v, direct %v", gamma, got, want)
		}
		if m.keys[slot] != load+slots {
			t.Fatalf("gamma %v: part 2's colliding load did not evict slot %d", gamma, slot)
		}
		check(load)
		m.release(ws)
	}
}

// TestBwExcessDeltaZeroWhenSlack is the early-out's proof obligation on
// random matrices: whenever bwLive reports false, the row's
// BandwidthDelta is 0 for every target part and every origin, unassigned
// included.
func TestBwExcessDeltaZeroWhenSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	slack := 0
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(8)
		hi := int64(1 + rng.Intn(60))
		s := &streamer{k: k, bw: make([]int64, k*k)}
		for p := 0; p < k; p++ {
			for q := p + 1; q < k; q++ {
				b := rng.Int63n(hi)
				s.bw[p*k+q], s.bw[q*k+p] = b, b
				s.bwMax = max(s.bwMax, b)
			}
		}
		// Half the trials overstate the bound, as initialStream's running
		// maximum may not (refresh makes it exact).
		if rng.Intn(2) == 0 {
			s.bwMax += rng.Int63n(5)
		}
		r := &pstate.Row{W: make([]int64, k)}
		for q := 0; q < k; q++ {
			if rng.Intn(3) == 0 {
				continue
			}
			if w := rng.Int63n(12); w > 0 { // zero-weight edges add nothing to a row
				r.W[q] = w
				r.Parts = append(r.Parts, q)
			}
		}
		s.cons.Bmax = s.bwMax + rng.Int63n(40) - 5
		if rng.Intn(10) == 0 {
			s.cons.Bmax = 0
		}
		if s.bwLive(r) {
			continue
		}
		slack++
		for to := 0; to < k; to++ {
			for from := -1; from < k; from++ {
				if d := r.BandwidthDelta(s.bw, s.cons.Bmax, from, to); d != 0 {
					t.Fatalf("trial %d: bwLive false but BandwidthDelta(%d, %d) = %d (bw %v, bwMax %d, Bmax %d, row %v)",
						trial, from, to, d, s.bw, s.bwMax, s.cons.Bmax, r.W)
				}
			}
		}
	}
	if slack < 500 {
		t.Fatalf("only %d of 3000 trials were slack: the test exercises too little", slack)
	}
}
