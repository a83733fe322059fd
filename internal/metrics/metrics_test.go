package metrics

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ppnpart/internal/graph"
)

// square builds the 4-cycle 0-1-2-3-0 with distinct weights.
func square() *graph.Graph {
	g := graph.NewWithWeights([]int64{10, 20, 30, 40})
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	g.MustAddEdge(2, 3, 11)
	g.MustAddEdge(3, 0, 13)
	return g
}

func TestValidate(t *testing.T) {
	g := square()
	if err := Validate(g, []int{0, 0, 1, 1}, 2); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if err := Validate(g, []int{0, 0, 1}, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	if err := Validate(g, []int{0, 0, 1, 5}, 2); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if err := Validate(g, []int{0, 0, 0, 0}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEdgeCut(t *testing.T) {
	g := square()
	// Split {0,1} vs {2,3}: cut edges are {1,2}=7 and {3,0}=13.
	if cut := EdgeCut(g, []int{0, 0, 1, 1}); cut != 20 {
		t.Fatalf("cut = %d, want 20", cut)
	}
	// Everything together: no cut.
	if cut := EdgeCut(g, []int{0, 0, 0, 0}); cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
	// Singletons: everything cut.
	if cut := EdgeCut(g, []int{0, 1, 2, 3}); cut != g.TotalEdgeWeight() {
		t.Fatalf("cut = %d, want total %d", cut, g.TotalEdgeWeight())
	}
}

func TestBandwidthMatrix(t *testing.T) {
	g := square()
	m := BandwidthMatrix(g, []int{0, 0, 1, 1}, 2)
	if m[0][1] != 20 || m[1][0] != 20 {
		t.Fatalf("BW(0,1) = %d/%d, want 20/20", m[0][1], m[1][0])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Fatal("diagonal must be zero")
	}
	// 3 parts: {0}, {1,2}, {3}.
	m3 := BandwidthMatrix(g, []int{0, 1, 1, 2}, 3)
	if m3[0][1] != 5 {
		t.Fatalf("BW(0,1) = %d, want 5", m3[0][1])
	}
	if m3[1][2] != 11 {
		t.Fatalf("BW(1,2) = %d, want 11", m3[1][2])
	}
	if m3[0][2] != 13 {
		t.Fatalf("BW(0,2) = %d, want 13", m3[0][2])
	}
}

func TestMaxLocalBandwidth(t *testing.T) {
	g := square()
	if b := MaxLocalBandwidth(g, []int{0, 1, 1, 2}, 3); b != 13 {
		t.Fatalf("max local BW = %d, want 13", b)
	}
	if b := MaxLocalBandwidth(g, []int{0, 0, 0, 0}, 1); b != 0 {
		t.Fatalf("single part max local BW = %d, want 0", b)
	}
}

func TestResources(t *testing.T) {
	g := square()
	r := PartResources(g, []int{0, 0, 1, 1}, 2)
	if r[0] != 30 || r[1] != 70 {
		t.Fatalf("resources = %v, want [30 70]", r)
	}
	if MaxResource(g, []int{0, 0, 1, 1}, 2) != 70 {
		t.Fatal("MaxResource wrong")
	}
	sizes := PartSizes([]int{0, 0, 1, 1}, 2)
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestImbalance(t *testing.T) {
	g := square() // total weight 100
	// Perfect balance for k=2 would be 50/50; {0,3} vs {1,2} = 50/50.
	if im := Imbalance(g, []int{0, 1, 1, 0}, 2); im != 1.0 {
		t.Fatalf("imbalance = %v, want 1.0", im)
	}
	// {0} vs rest: max 90 vs ideal 50 → 1.8.
	if im := Imbalance(g, []int{0, 1, 1, 1}, 2); im != 1.8 {
		t.Fatalf("imbalance = %v, want 1.8", im)
	}
	empty := graph.New(0)
	if im := Imbalance(empty, nil, 2); im != 0 {
		t.Fatalf("empty imbalance = %v, want 0", im)
	}
}

func TestCheckConstraints(t *testing.T) {
	g := square()
	parts := []int{0, 0, 1, 1} // BW(0,1)=20, resources 30/70
	c := Constraints{Bmax: 19, Rmax: 60}
	viol := CheckConstraints(g, parts, 2, c)
	if len(viol) != 2 {
		t.Fatalf("violations = %v, want 2 entries", viol)
	}
	var haveBW, haveRes bool
	for _, v := range viol {
		switch v.Kind {
		case "bandwidth":
			haveBW = true
			if v.Value != 20 || v.Limit != 19 {
				t.Fatalf("bw violation = %+v", v)
			}
			if !strings.Contains(v.String(), "bandwidth") {
				t.Fatal("violation String missing kind")
			}
		case "resource":
			haveRes = true
			if v.Value != 70 || v.Limit != 60 || v.PartA != 1 {
				t.Fatalf("res violation = %+v", v)
			}
			if !strings.Contains(v.String(), "resource") {
				t.Fatal("violation String missing kind")
			}
		}
	}
	if !haveBW || !haveRes {
		t.Fatal("expected one bandwidth and one resource violation")
	}
	if Feasible(g, parts, 2, c) {
		t.Fatal("infeasible partition reported feasible")
	}
	if !Feasible(g, parts, 2, Constraints{Bmax: 20, Rmax: 70}) {
		t.Fatal("feasible partition reported infeasible")
	}
	if !Feasible(g, parts, 2, Constraints{}) {
		t.Fatal("unconstrained must always be feasible")
	}
	if !(Constraints{}).Unconstrained() {
		t.Fatal("zero Constraints should be unconstrained")
	}
	if (Constraints{Bmax: 5}).Unconstrained() {
		t.Fatal("Bmax-only Constraints should be constrained")
	}
}

func TestGoodnessOrdering(t *testing.T) {
	g := square()
	c := Constraints{Bmax: 20, Rmax: 70}
	feasLargeCut := []int{0, 0, 1, 1} // cut 20, feasible
	feasSmallCut := []int{0, 1, 1, 0} // cut 5+11=16? edges {0,1}=5 cut, {1,2}=0, {2,3}=11 cut, {3,0}=0 → 16, resources 50/50, BW 16
	infeasible := []int{0, 1, 2, 3}   // singleton, resource fine but BW(0,3)... depends; use tight constraints
	cTight := Constraints{Bmax: 4, Rmax: 70}

	gFeasLarge := Goodness(g, feasLargeCut, 2, c)
	gFeasSmall := Goodness(g, feasSmallCut, 2, c)
	if gFeasSmall >= gFeasLarge {
		t.Fatalf("goodness should prefer smaller cut among feasible: %v vs %v", gFeasSmall, gFeasLarge)
	}
	gInfeas := Goodness(g, infeasible, 4, cTight)
	gFeas := Goodness(g, feasSmallCut, 2, cTight)
	_ = gFeas
	if gInfeas <= gFeasLarge {
		t.Fatalf("any infeasible must score worse than any feasible: %v vs %v", gInfeas, gFeasLarge)
	}
	// Among infeasible, smaller excess wins.
	nearMiss := Goodness(g, feasLargeCut, 2, Constraints{Bmax: 19, Rmax: 100})  // excess 1
	farMiss := Goodness(g, []int{0, 1, 2, 3}, 4, Constraints{Bmax: 1, Rmax: 1}) // big excess
	if nearMiss >= farMiss {
		t.Fatalf("goodness should prefer near-feasible: %v vs %v", nearMiss, farMiss)
	}
}

func TestEvaluateReport(t *testing.T) {
	g := square()
	r := Evaluate(g, []int{0, 0, 1, 1}, 2, Constraints{Bmax: 19, Rmax: 100})
	if r.EdgeCut != 20 || r.MaxLocalBandwidth != 20 || r.MaxResource != 70 {
		t.Fatalf("report = %+v", r)
	}
	if r.Feasible || len(r.Violations) != 1 {
		t.Fatalf("feasibility wrong: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
	r2 := Evaluate(g, []int{0, 0, 1, 1}, 2, Constraints{})
	if !r2.Feasible {
		t.Fatal("unconstrained report must be feasible")
	}
}

// TestEvaluateMatchesStandalone pins Evaluate's single walk to the
// standalone functions field by field, on random graphs with hyperedges,
// under every mix of Bmax, scalar Rmax and per-part RmaxPart.
func TestEvaluateMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		g, parts, k := randomGraphParts(rng)
		n := g.NumNodes()
		for h := rng.Intn(4); h > 0 && n >= 2; h-- {
			pins := rng.Perm(n)[:2+rng.Intn(min(n-1, 4))]
			nodes := make([]graph.Node, len(pins))
			for j, p := range pins {
				nodes[j] = graph.Node(p)
			}
			g.MustAddHyperEdge(nodes, int64(1+rng.Intn(9)))
		}
		var c Constraints
		if rng.Intn(2) == 0 {
			c.Bmax = 1 + int64(rng.Intn(60))
		}
		if rng.Intn(2) == 0 {
			c.Rmax = 1 + int64(rng.Intn(200))
		}
		if rng.Intn(2) == 0 {
			c.RmaxPart = make([]int64, k)
			for p := range c.RmaxPart {
				c.RmaxPart[p] = int64(rng.Intn(200)) - 20
			}
		}
		got := Evaluate(g, parts, k, c)
		viol := CheckConstraints(g, parts, k, c)
		want := Report{
			K:                 k,
			EdgeCut:           EdgeCut(g, parts),
			HyperCut:          HyperCut(g, parts),
			MaxLocalBandwidth: MaxLocalBandwidth(g, parts, k),
			MaxResource:       MaxResource(g, parts, k),
			PartResources:     PartResources(g, parts, k),
			PartSizes:         PartSizes(parts, k),
			Imbalance:         Imbalance(g, parts, k),
			Violations:        viol,
			Feasible:          Feasible(g, parts, k, c),
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (k=%d, %+v):\nEvaluate   %+v\nstandalone %+v", i, k, c, got, want)
		}
	}
}

func randomGraphParts(rng *rand.Rand) (*graph.Graph, []int, int) {
	n := 2 + rng.Intn(40)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(30))
	}
	g := graph.NewWithWeights(w)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(15)))
		}
	}
	k := 1 + rng.Intn(6)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	return g, parts, k
}

func TestPropertyBandwidthMatrixSumsToTwiceCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parts, k := randomGraphParts(rng)
		m := BandwidthMatrix(g, parts, k)
		var sum int64
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				sum += m[i][j]
			}
		}
		return sum == 2*EdgeCut(g, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResourcesSumToTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parts, k := randomGraphParts(rng)
		var sum int64
		for _, r := range PartResources(g, parts, k) {
			sum += r
		}
		return sum == g.TotalNodeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuotientEdgeWeightEqualsCut(t *testing.T) {
	// The quotient graph's total edge weight must equal the edge cut — the
	// partition graph *is* the pairwise bandwidth structure.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parts, k := randomGraphParts(rng)
		q, err := g.Quotient(parts, k)
		if err != nil {
			return false
		}
		return q.TotalEdgeWeight() == EdgeCut(g, parts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGoodnessFeasibleEqualsCut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parts, k := randomGraphParts(rng)
		// Unconstrained: always feasible, goodness must equal the cut.
		return Goodness(g, parts, k, Constraints{}) == float64(EdgeCut(g, parts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
