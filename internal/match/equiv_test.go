package match

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

// kmeans1DPerNode is the reference 1-D k-means: every Lloyd iteration
// assigns every node to its nearest centroid. kmeans1DWS must return the
// same clusters. iters reports the iterations run (30 at the cap).
func kmeans1DPerNode(g *graph.CSR, k int) (cluster []int, iters int) {
	n := g.NumNodes()
	cluster = make([]int, n)
	if k == 1 || n <= k {
		for i := range cluster {
			if n <= k {
				cluster[i] = i % k
			}
		}
		return cluster, 0
	}
	wts := make([]float64, n)
	for u := 0; u < n; u++ {
		wts[u] = float64(g.NodeW[u])
	}
	sorted := append([]float64(nil), wts...)
	sort.Float64s(sorted)
	centroids := make([]float64, k)
	for i := range centroids {
		centroids[i] = sorted[(i*(n-1))/(k-1)]
	}
	sum := make([]float64, k)
	cnt := make([]int, k)
	for iter := 0; iter < 30; iter++ {
		iters++
		changed := false
		for u := 0; u < n; u++ {
			best, bestD := 0, absF(wts[u]-centroids[0])
			for c := 1; c < k; c++ {
				d := absF(wts[u] - centroids[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if cluster[u] != best {
				cluster[u] = best
				changed = true
			}
		}
		for c := 0; c < k; c++ {
			sum[c], cnt[c] = 0, 0
		}
		for u := 0; u < n; u++ {
			sum[cluster[u]] += wts[u]
			cnt[cluster[u]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centroids[c] = sum[c] / float64(cnt[c])
			}
		}
		if !changed {
			break
		}
	}
	return cluster, iters
}

// weightsCSR is an edgeless CSR carrying node weights w.
func weightsCSR(w []int64) *graph.CSR {
	return graph.NewWithWeights(w).ToCSR()
}

// TestKMeans1DMatchesLloyd checks the distinct-weight k-means against the
// per-node reference on all-equal weights, n ≤ k, runs that hit the
// 30-iteration cap, weights whose total passes 2^53, and random mixes.
// One workspace serves every case, so stale pooled scratch would show.
func TestKMeans1DMatchesLloyd(t *testing.T) {
	ws := new(arena.Workspace)
	check := func(name string, w []int64, k int) int {
		t.Helper()
		csr := weightsCSR(w)
		want, iters := kmeans1DPerNode(csr, k)
		got := kmeans1DWS(ws, csr, k)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d, k=%d): clusters %v, want %v", name, len(w), k, got, want)
		}
		ws.Ints.Put(got)
		return iters
	}
	equal := make([]int64, 50)
	for i := range equal {
		equal[i] = 7
	}
	for k := 1; k <= 6; k++ {
		check("all-equal", equal, k)
		check("n<=k", []int64{5, 1, 9}[:min(3, k)], k)
		check("n<=k", []int64{3, 3, 8, 1, 2, 6}[:k], k)
	}

	// Near 2^60 a float's spacing is 256, so the centroid sums round: this
	// input clusters as [0 2 2 1 1] with the node-order sums, but summing
	// each distinct weight times its count clusters it differently.
	const big = int64(1) << 60
	check("order-sensitive sums", []int64{big + 768, big + 1792, big + 2048, big + 1536, big + 1280}, 3)

	rng := rand.New(rand.NewSource(7))
	capped, huge := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(300)
		k := 2 + rng.Intn(12)
		w := make([]int64, n)
		switch trial % 4 {
		case 0: // few distinct weights
			for i := range w {
				w[i] = int64(1 + rng.Intn(5))
			}
		case 1: // wide spread: slow to converge
			for i := range w {
				w[i] = rng.Int63n(1 << 20)
			}
		case 2: // skewed, as in coarse levels
			for i := range w {
				w[i] = int64(1 + rng.ExpFloat64()*float64(1+rng.Intn(1000)))
			}
		case 3: // total above 2^53, float summation order matters
			for i := range w {
				w[i] = 1<<52 + rng.Int63n(1<<60)
			}
		}
		var total uint64
		overflow := false
		for _, x := range w {
			var carry uint64
			total, carry = bits.Add64(total, uint64(x), 0)
			overflow = overflow || carry != 0
		}
		if overflow || total > 1<<53 {
			huge++
		}
		if check("random", w, k) == 30 {
			capped++
		}
	}
	if capped == 0 || huge == 0 {
		t.Fatalf("weak input mix: %d runs hit the iteration cap, %d totals passed 2^53", capped, huge)
	}
}

// heavyGraph builds a random graph of n nodes with m extra edges. With
// top set it adds one edge that lifts the total edge weight to just
// under the packed path's bound, so the light edges' inverted weights
// reach the keys' top bit.
func heavyGraph(rng *rand.Rand, n, m int, top bool) *graph.CSR {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(rng.Intn(i)), graph.Node(i), int64(1+rng.Intn(6)))
	}
	for i := 0; i < m; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(6)))
		}
	}
	if top {
		idBits := bits.Len(uint(n))
		bound := int64(1) << (63 - 2*idBits)
		g.MustAddEdge(0, graph.Node(n-1), bound-1-g.TotalEdgeWeight())
	}
	return g.ToCSR()
}

// TestHeavyEdgeRadixMatchesComparator checks that the packed, radix-
// sorted heavy-edge matching equals the comparator-sorted one, below and
// above the 256-key radix threshold and with keys whose top bit is set,
// and that sortPackedKeys orders the keys exactly as slices.Sort does.
func TestHeavyEdgeRadixMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := new(arena.Workspace)
	sawTop, sawSmall, sawLarge := false, false, false
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(2000)
		if trial%3 == 0 {
			n = 2 + rng.Intn(120)
		}
		csr := heavyGraph(rng, n, rng.Intn(3*n), trial%2 == 1)
		idBits := uint(bits.Len(uint(n)))
		if 2*idBits >= 63 || csr.EdgeWT >= int64(1)<<(63-2*idBits) {
			t.Fatalf("trial %d: instance misses the packed path", trial)
		}
		var keys []int64
		for u := 0; u < n; u++ {
			nbrs, wts := csr.Row(graph.Node(u))
			for i, v := range nbrs {
				if graph.Node(u) < v {
					keys = append(keys, (csr.EdgeWT-wts[i])<<(2*idBits)|int64(u)<<idBits|int64(v))
				}
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		if got := sortPackedKeys(ws, keys); !slices.Equal(got, want) {
			t.Fatalf("trial %d: radix order differs from slices.Sort", trial)
		} else {
			ws.Int64s.Put(got)
		}
		sawTop = sawTop || want[len(want)-1]>>62 == 1
		sawSmall = sawSmall || len(keys) < 256
		sawLarge = sawLarge || len(keys) >= 256

		got := heavyEdgePackedWS(ws, csr, idBits)
		ref := heavyEdgeComparatorWS(ws, csr)
		if !slices.Equal(got, ref) {
			t.Fatalf("trial %d (n=%d, %d keys): packed matching differs from the comparator's", trial, n, len(keys))
		}
	}
	if !sawTop || !sawSmall || !sawLarge {
		t.Fatalf("weak key mix: top bit %v, below 256 %v, above 256 %v", sawTop, sawSmall, sawLarge)
	}
}
