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
)

// scoreDirect is score as it stood before the penalty memo: both powers
// of the imbalance penalty computed by math.Pow for every candidate part.
func (s *streamer) scoreDirect(p int, w int64, from int, conn []int64, touched []int) float64 {
	load := s.res[p]
	if p == from {
		load -= w
	}
	sc := float64(conn[p])
	if s.alpha > 0 {
		sc -= s.alpha * (math.Pow(float64(load+w), s.gamma) - math.Pow(float64(load), s.gamma))
	}
	if d := s.bwExcessDelta(p, from, conn, touched); d != 0 {
		sc -= s.bwBase * float64(d)
	}
	return sc
}

// pickDirect is the reference chooser: pick over scoreDirect, ignoring
// the memo. The memoized chooser must reproduce its every choice.
func (s *streamer) pickDirect(w int64, from int, conn []int64, touched []int, _ *powMemo) int {
	best, bestScore := from, math.Inf(-1)
	if from >= 0 {
		bestScore = s.scoreDirect(from, w, from, conn, touched)
	}
	for p := 0; p < s.k; p++ {
		if p == from {
			continue
		}
		if lim := s.cons.RmaxFor(p); lim > 0 && s.res[p]+w > lim {
			continue
		}
		if sc := s.scoreDirect(p, w, from, conn, touched); sc > bestScore {
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
// [0, 3000]: far more distinct loads near each part total than a memo row
// has slots, so slots evict, and about one node in eight weighs zero.
func memoGraph(rng *rand.Rand, n int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		if rng.Intn(8) > 0 {
			w[i] = int64(rng.Intn(3001))
		}
	}
	w[0], w[1] = 0, 3000
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

// TestMemoChooserMatchesDirect is the memo's oracle: on graphs whose
// weight span evicts memo slots, the memoized chooser and the direct
// math.Pow reference produce the same assignment and the same per-pass
// trajectory, bit for bit, across gamma, stream order, constraints and
// worker counts.
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
		}}
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
							t.Fatalf("%s: memoized chooser changed the assignment", name)
						}
						if !reflect.DeepEqual(got.Iters, want.Iters) {
							t.Fatalf("%s: memoized chooser changed the trajectory:\n%+v\nvs\n%+v", name, got.Iters, want.Iters)
						}
					}
				}
			}
		}
	}
}

// TestPowMemoCollisionsAndZero pins the memo's lookup contract: every
// answer has the bits of the direct math.Pow call, whether it hits,
// misses, or evicts a colliding key, and the zeroed memo answers key 0
// with +0 before any store.
func TestPowMemoCollisionsAndZero(t *testing.T) {
	const k = 3
	slots := int64(1 << powMemoBits)
	for _, gamma := range []float64{1, 1.5, 2.7} {
		ws := &arena.Workspace{}
		m := newPowMemo(ws, k, gamma)
		check := func(p int, x int64) {
			t.Helper()
			got, want := m.pow(p, x), math.Pow(float64(x), gamma)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gamma %v: pow(%d, %d) = %v (bits %x), want %v (bits %x)",
					gamma, p, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// Key 0 on fresh storage: the zero slot is already Pow(0, gamma).
		for p := 0; p < k; p++ {
			check(p, 0)
		}
		// Keys that share slot 0 evict each other and must recompute.
		for round := 0; round < 3; round++ {
			for _, x := range []int64{0, slots, 2 * slots, 0, 7 * slots} {
				check(1, x)
			}
		}
		// A colliding key in one part leaves the other parts' rows alone.
		check(0, 5)
		check(2, 5+slots)
		check(0, 5)
		check(2, 5+slots)
		// Dense consecutive keys fill a row without collisions, then hit.
		for x := int64(1000); x < 1000+slots; x++ {
			check(2, x)
		}
		for x := int64(1000); x < 1000+slots; x++ {
			check(2, x)
		}
		m.release(ws)
	}
}
