package initpart

import (
	"math/rand"
	"slices"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/refine"
)

// White-box tests for the grower's internal helpers: the frontier's
// selection order, empty-part repair, and the recursive-bisect
// rebalancer's edge cases.

// testFrontier builds the grower's frontier, a refine.GainQueue, over n
// nodes from a fresh workspace, the way GreedyGrowWS draws it.
func testFrontier(n int) *refine.GainQueue {
	f := refine.NewGainQueue(new(arena.Workspace), n)
	return &f
}

// popAll drains f in pop order.
func popAll(f *refine.GainQueue) []graph.Node {
	var got []graph.Node
	for f.Len() > 0 {
		u, _ := f.Pop()
		got = append(got, u)
	}
	return got
}

func TestFrontierPopMaxOrdersByWeightThenID(t *testing.T) {
	f := testFrontier(8)
	f.Add(3, 5)
	f.Add(1, 9)
	f.Add(6, 2)
	f.Add(4, 9) // ties node 1 on weight; higher id must lose
	got := popAll(f)
	want := []graph.Node{1, 4, 3, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v (weight desc, id asc)", got, want)
	}
}

func TestFrontierAddAccumulatesWeight(t *testing.T) {
	f := testFrontier(4)
	f.Add(0, 3)
	f.Add(2, 5)
	f.Add(0, 4) // 0 now totals 7, overtaking 2
	if got, w := f.Pop(); got != 0 || w != 7 {
		t.Fatalf("Pop = %d/%d, want 0/7 (accumulated weight 7 beats 5)", got, w)
	}
	if got, _ := f.Pop(); got != 2 {
		t.Fatalf("Pop = %d, want 2", got)
	}
}

func TestFrontierPopLeavesNoResidue(t *testing.T) {
	f := testFrontier(4)
	f.Add(1, 10)
	f.Add(2, 6)
	if got, _ := f.Pop(); got != 1 {
		t.Fatalf("Pop = %d, want 1", got)
	}
	// Re-adding a popped node starts from zero: 3 < 6, so 2 wins now.
	f.Add(1, 3)
	if got, _ := f.Pop(); got != 2 {
		t.Fatalf("Pop after re-add = %d, want 2 (old weight must not linger)", got)
	}
	if got, w := f.Pop(); got != 1 || w != 3 {
		t.Fatalf("Pop = %d/%d, want 1/3", got, w)
	}
	if f.Len() != 0 {
		t.Fatalf("frontier not drained: len = %d", f.Len())
	}
	// A drained frontier is as good as a fresh one: equal additions to
	// every node pop in id order, so no popped weight lingers.
	for u := 3; u >= 0; u-- {
		f.Add(graph.Node(u), 1)
	}
	if got, want := popAll(f), []graph.Node{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("pop order after drain %v, want %v", got, want)
	}
}

func TestFixEmptyPartsDonatesLightestFromLargest(t *testing.T) {
	w := []int64{9, 2, 7, 4, 8}
	g := graph.NewWithWeights(w)
	for i := 1; i < len(w); i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 1)
	}
	// Part 0 holds everything, parts 1 and 2 are empty.
	parts := []int{0, 0, 0, 0, 0}
	fixEmptyParts(g.NodeWeights(), parts, 3, rand.New(rand.NewSource(1)))
	sizes := metrics.PartSizes(parts, 3)
	for p, s := range sizes {
		if s == 0 {
			t.Fatalf("part %d still empty: parts=%v", p, parts)
		}
	}
	// The lightest nodes (1 then 3) are the expected donations.
	if parts[1] == 0 {
		t.Errorf("lightest node 1 not donated: parts=%v", parts)
	}
	if parts[3] == 0 {
		t.Errorf("second-lightest node 3 not donated: parts=%v", parts)
	}
}

func TestFixEmptyPartsNoOpWhenAllPopulated(t *testing.T) {
	g := graph.NewWithWeights([]int64{1, 2, 3})
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	parts := []int{0, 1, 2}
	fixEmptyParts(g.NodeWeights(), parts, 3, rand.New(rand.NewSource(1)))
	for i, want := range []int{0, 1, 2} {
		if parts[i] != want {
			t.Fatalf("populated parts were rewritten: %v", parts)
		}
	}
}

func TestRebalanceToIdealMorePartsThanLiveOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 12)
	k := 6
	// Only two parts are live; the rest exist but own nothing. The
	// rebalancer must not panic and must keep the assignment valid.
	parts := make([]int, 12)
	for i := range parts {
		parts[i] = i % 2
	}
	rebalanceToIdeal(new(arena.Workspace), g.ToCSR(), parts, k)
	if err := metrics.Validate(g, parts, k); err != nil {
		t.Fatalf("rebalance broke the assignment: %v", err)
	}
	bound := g.TotalNodeWeight()/int64(k) + g.MaxNodeWeight()
	for p, r := range metrics.PartResources(g, parts, k) {
		if r > bound {
			t.Errorf("part %d resource %d exceeds ideal-share bound %d", p, r, bound)
		}
	}
}

func TestRebalanceToIdealAllEqualWeights(t *testing.T) {
	n, k := 16, 4
	w := make([]int64, n)
	for i := range w {
		w[i] = 5
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 2)
	}
	// Heavily skewed start: everything in part 0.
	parts := make([]int, n)
	rebalanceToIdeal(new(arena.Workspace), g.ToCSR(), parts, k)
	if err := metrics.Validate(g, parts, k); err != nil {
		t.Fatalf("rebalance broke the assignment: %v", err)
	}
	bound := g.TotalNodeWeight()/int64(k) + g.MaxNodeWeight()
	for p, r := range metrics.PartResources(g, parts, k) {
		if r > bound {
			t.Errorf("part %d resource %d exceeds bound %d with equal weights", p, r, bound)
		}
	}
}
