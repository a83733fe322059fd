package refine

import (
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/ppn"
	"ppnpart/internal/pstate"
)

// fanoutHyperGraph lowers a random fanout PPN to the hyperedge model.
func fanoutHyperGraph(t *testing.T, nProcs int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := gen.RandomFanoutPPN(nProcs, gen.WeightRange{Lo: 10, Hi: 100},
		gen.WeightRange{Lo: 1, Hi: 5}, rng)
	if err != nil {
		t.Fatalf("RandomFanoutPPN: %v", err)
	}
	g, err := net.ToGraphHyper(ppn.DefaultResourceModel())
	if err != nil {
		t.Fatalf("ToGraphHyper: %v", err)
	}
	return g
}

func TestReplicateDeterministicAndBounded(t *testing.T) {
	g := fanoutHyperGraph(t, 30, 5)
	n := g.NumNodes()
	k := 4
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i % k
	}
	cfg := pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()}}
	reps1, st1, err := Replicate(g, parts, k, cfg, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps2, st2, err := Replicate(g, parts, k, cfg, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", st1, st2)
	}
	for u := range reps1 {
		if reps1[u] != reps2[u] {
			t.Fatalf("replica vector differs at node %d: %d vs %d", u, reps1[u], reps2[u])
		}
	}
	if st1.ScoreAfter > st1.ScoreBefore {
		t.Fatalf("score regressed: before %v, after %v", st1.ScoreBefore, st1.ScoreAfter)
	}
	if st1.ObjectiveAfter > st1.ObjectiveBefore {
		t.Fatalf("objective regressed: before %d, after %d", st1.ObjectiveBefore, st1.ObjectiveAfter)
	}
	clones := 0
	for u, p := range reps1 {
		if p < 0 {
			continue
		}
		clones++
		if p == parts[u] {
			t.Fatalf("node %d replicated into its home part %d", u, p)
		}
		if p >= k {
			t.Fatalf("node %d replica part %d out of range", u, p)
		}
	}
	if clones != st1.Clones {
		t.Fatalf("replica vector holds %d clones, stats say %d", clones, st1.Clones)
	}
	// A naive round-robin assignment of a fanout-heavy network leaves
	// plenty of cut producer streams, so the pass must find work.
	if st1.Clones == 0 {
		t.Fatal("replication pass found no improvement on a fanout-heavy PPN")
	}
	if st1.ScoreAfter >= st1.ScoreBefore {
		t.Fatalf("clones committed without strict improvement: %v -> %v",
			st1.ScoreBefore, st1.ScoreAfter)
	}
}

// TestReplicateScoreAfterIsReproducible replays the returned replica
// vector on a fresh state and checks the pass reported the true score.
func TestReplicateScoreAfterIsReproducible(t *testing.T) {
	g := fanoutHyperGraph(t, 24, 11)
	n := g.NumNodes()
	k := 3
	parts := make([]int, n)
	for i := range parts {
		parts[i] = (i * 7) % k
	}
	cfg := pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()}}
	reps, st, err := Replicate(g, parts, k, cfg, ReplicateOptions{MaxClones: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Clones > 8 {
		t.Fatalf("MaxClones=8 exceeded: %d", st.Clones)
	}
	s, err := pstate.New(g.ToCSR(), parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range reps {
		if p >= 0 {
			s.Replicate(graph.Node(u), p)
		}
	}
	if got := s.Score(); got != st.ScoreAfter {
		t.Fatalf("replayed score %v, stats claim %v", got, st.ScoreAfter)
	}
	if got := s.Objective(); got != st.ObjectiveAfter {
		t.Fatalf("replayed objective %d, stats claim %d", got, st.ObjectiveAfter)
	}
}

// TestReplicateRespectsPerPartCaps pins one partition's cap at its current
// load so no clone can land there.
func TestReplicateRespectsPerPartCaps(t *testing.T) {
	g := fanoutHyperGraph(t, 24, 17)
	n := g.NumNodes()
	k := 3
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i % k
	}
	loads := metrics.PartResources(g, parts, k)
	total := g.TotalNodeWeight()
	c := metrics.Constraints{Rmax: total, RmaxPart: []int64{loads[0], total, total}}
	cfg := pstate.Config{K: k, Constraints: c}
	reps, _, err := Replicate(g, parts, k, cfg, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range reps {
		if p == 0 {
			t.Fatalf("node %d cloned into part 0 despite a full cap", u)
		}
	}
	res := metrics.ReplicatedPartResources(g, parts, reps, k)
	if res[0] != loads[0] {
		t.Fatalf("part 0 load changed: %d -> %d", loads[0], res[0])
	}
}

// TestReplicateNoOpWithoutCutTraffic verifies the pass leaves an already
// co-located assignment untouched.
func TestReplicateNoOpWithoutCutTraffic(t *testing.T) {
	g := fanoutHyperGraph(t, 12, 23)
	parts := make([]int, g.NumNodes()) // everything in part 0: nothing is cut
	cfg := pstate.Config{K: 2, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()}}
	reps, st, err := Replicate(g, parts, 2, cfg, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Clones != 0 || st.ScoreAfter != st.ScoreBefore {
		t.Fatalf("no-op input produced clones: %+v", st)
	}
	for u, p := range reps {
		if p != -1 {
			t.Fatalf("node %d replicated in a cut-free assignment", u)
		}
	}
}

// replicateByProbe is the reference replication pass: every round
// re-derives every candidate and prices it with an exact Replicate → Score
// → Undo probe on the state. Replicate must reproduce its replicas and
// stats (Trials aside, which counts different work) exactly.
func replicateByProbe(g *graph.Graph, parts []int, k int, cfg pstate.Config, opts ReplicateOptions) ([]int, ReplicateStats, error) {
	opts = opts.withDefaults()
	csr := g.ToCSR()
	st := ReplicateStats{}
	s, err := pstate.New(csr, parts, cfg)
	if err != nil {
		return nil, st, err
	}
	st.ScoreBefore = s.Score()
	st.ScoreAfter = st.ScoreBefore
	st.ObjectiveBefore = s.Objective()
	st.ObjectiveAfter = st.ObjectiveBefore
	n := csr.NumNodes()
	replicas := make([]int, n)
	for i := range replicas {
		replicas[i] = -1
	}
	if k < 2 || n == 0 {
		return replicas, st, nil
	}
	cand := make([]bool, k)
	cur := st.ScoreBefore
	for st.Clones < opts.MaxClones {
		var bestU graph.Node = -1
		bestP := -1
		bestScore := cur
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			if s.Replica(un) >= 0 {
				continue
			}
			from := s.Part(un)
			clear(cand)
			found := false
			mark := func(p int) {
				if p >= 0 && p != from && !cand[p] {
					cand[p] = true
					found = true
				}
			}
			adj, _ := csr.Row(un)
			for _, v := range adj {
				mark(s.Part(v))
				mark(s.Replica(v))
			}
			for _, e := range csr.IncidentHyper(un) {
				pins := csr.HyperPins(e)
				if pins[0] != un {
					continue
				}
				for _, r := range pins[1:] {
					mark(s.Part(r))
					mark(s.Replica(r))
				}
			}
			if !found {
				continue
			}
			for p := 0; p < k; p++ {
				if !cand[p] {
					continue
				}
				if lim := cfg.Constraints.RmaxFor(p); lim > 0 && s.Resource(p)+csr.NodeW[u] > lim {
					continue
				}
				st.Trials++
				s.Replicate(un, p)
				sc := s.Score()
				s.Undo()
				if sc < bestScore {
					bestScore, bestU, bestP = sc, un, p
				}
			}
		}
		if bestU < 0 {
			break
		}
		s.Replicate(bestU, bestP)
		cur = bestScore
		st.Clones++
	}
	if reps := s.Replicas(); reps != nil {
		copy(replicas, reps)
	}
	st.ScoreAfter = cur
	st.ObjectiveAfter = s.Objective()
	return replicas, st, nil
}

// TestReplicateMatchesProbe runs the cached-delta pass and the probe
// oracle on seeded instances mixing fanout and pairwise graphs, K from 2
// to 8, global and per-part scalar caps, tight caps with a bandwidth bound
// (infeasible starts) and vector caps with per-part overrides.
func TestReplicateMatchesProbe(t *testing.T) {
	const instances = 300
	clones := 0
	for i := 0; i < instances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		var g *graph.Graph
		if i%3 == 2 {
			var err error
			n := 10 + rng.Intn(50)
			g, err = gen.RandomConnected(n, n+rng.Intn(3*n),
				gen.WeightRange{Lo: 1, Hi: 40}, gen.WeightRange{Lo: 1, Hi: 20}, rng)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			g = fanoutHyperGraph(t, 8+rng.Intn(40), int64(i))
		}
		n := g.NumNodes()
		k := 2 + rng.Intn(7)
		parts := make([]int, n)
		for u := range parts {
			parts[u] = rng.Intn(k)
		}
		total := g.TotalNodeWeight()
		share := total/int64(k) + g.MaxNodeWeight()
		cfg := pstate.Config{K: k}
		switch i % 5 {
		case 0:
			cfg.Constraints.Rmax = total
		case 1:
			cfg.Constraints.Rmax = share * 5 / 4
		case 2:
			cfg.Constraints.Rmax = share
			cfg.Constraints.RmaxPart = make([]int64, k)
			for p := range cfg.Constraints.RmaxPart {
				cfg.Constraints.RmaxPart[p] = share/2 + rng.Int63n(share+1)
			}
		case 3:
			cfg.Constraints.Rmax = share
			cfg.Constraints.Bmax = 1 + g.TotalEdgeWeight()/int64(4*k*k)
		case 4:
			const dims = 3
			cfg.Constraints.Rmax = share * 3 / 2
			cfg.Vectors = make([][]int64, n)
			sum := make([]int64, dims)
			for u := range cfg.Vectors {
				cfg.Vectors[u] = make([]int64, dims)
				for d := range cfg.Vectors[u] {
					if rng.Intn(3) > 0 {
						cfg.Vectors[u][d] = 1 + rng.Int63n(10)
						sum[d] += cfg.Vectors[u][d]
					}
				}
			}
			vc := metrics.VectorConstraints{Rmax: make([]int64, dims), PartCaps: make([][]int64, k)}
			for d := range vc.Rmax {
				vc.Rmax[d] = 1 + sum[d]/int64(k)
			}
			for p := range vc.PartCaps {
				vc.PartCaps[p] = make([]int64, dims)
				for d := range vc.PartCaps[p] {
					if rng.Intn(2) == 0 {
						vc.PartCaps[p][d] = 1 + rng.Int63n(2*vc.Rmax[d])
					}
				}
			}
			cfg.VectorConstraints = vc
		}
		opts := ReplicateOptions{MaxClones: rng.Intn(40)}

		want, wst, err := replicateByProbe(g, parts, k, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := Replicate(g, parts, k, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		gst.Trials, wst.Trials = 0, 0
		if gst != wst {
			t.Fatalf("instance %d (n=%d k=%d): stats %+v, probe oracle %+v", i, n, k, gst, wst)
		}
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("instance %d: node %d replica %d, probe oracle %d", i, u, got[u], want[u])
			}
		}
		clones += wst.Clones
	}
	if clones < instances {
		t.Fatalf("only %d clones over %d instances: the instances exercise too little", clones, instances)
	}
	t.Logf("%d clones over %d instances", clones, instances)
}
