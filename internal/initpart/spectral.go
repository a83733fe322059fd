package initpart

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ppnpart/internal/graph"
)

// SpectralBisect computes a bisection from the Fiedler vector (the
// eigenvector of the second-smallest eigenvalue of the weighted graph
// Laplacian), splitting at the resource-weighted median. The Fiedler
// vector is obtained by power iteration on a spectrally shifted Laplacian
// with deflation of the constant eigenvector — dependency-free and
// adequate for the coarsest graphs (a few hundred nodes) where spectral
// seeding is used. This is the Global Search comparator of §II-B.
func SpectralBisect(csr *graph.CSR, rng *rand.Rand) ([]int, error) {
	n := csr.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("initpart: spectral bisection needs >= 2 nodes, have %d", n)
	}
	f := FiedlerVector(csr, rng)
	// Split at the node-weight-weighted median of the Fiedler values.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(f[a], f[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	half := csr.NodeWT / 2
	parts := make([]int, n)
	var acc int64
	placed := 0
	for _, u := range idx {
		if placed > 0 && acc >= half {
			break
		}
		parts[u] = 0
		acc += csr.NodeW[u]
		placed++
	}
	for _, u := range idx[placed:] {
		parts[u] = 1
	}
	if placed == n { // degenerate: all on one side
		parts[idx[n-1]] = 1
	}
	return parts, nil
}

// FiedlerVector approximates the second eigenvector of the weighted
// Laplacian L = D - A by power iteration on (cI - L), which maps the
// smallest eigenvalues of L to the largest of the iterated operator;
// the constant vector (eigenvalue 0) is deflated each step.
func FiedlerVector(csr *graph.CSR, rng *rand.Rand) []float64 {
	n := csr.NumNodes()
	// c must exceed lambda_max(L); 2*max weighted degree is a standard
	// upper bound (Gershgorin: lambda_max <= 2*d_max).
	var dmax float64
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(csr.WeightedDegree(graph.Node(u)))
		if deg[u] > dmax {
			dmax = deg[u]
		}
	}
	c := 2*dmax + 1
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	y := make([]float64, n)
	const iters = 300
	for it := 0; it < iters; it++ {
		deflateConstant(x)
		normalize(x)
		// y = (cI - L) x = c·x - D·x + A·x
		for u := 0; u < n; u++ {
			y[u] = (c - deg[u]) * x[u]
			adj, wts := csr.Row(graph.Node(u))
			for i, v := range adj {
				y[u] += float64(wts[i]) * x[v]
			}
		}
		x, y = y, x
	}
	deflateConstant(x)
	normalize(x)
	return x
}

// deflateConstant removes the component along the all-ones vector.
func deflateConstant(x []float64) {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

func normalize(x []float64) {
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		// Degenerate start: re-seed deterministically.
		for i := range x {
			x[i] = float64(i%2)*2 - 1
		}
		return
	}
	for i := range x {
		x[i] /= norm
	}
}

// SpectralKWay produces a k-way partition by recursive spectral bisection
// with FM cleanup on each split, mirroring RecursiveBisect but seeded
// spectrally.
func SpectralKWay(csr *graph.CSR, k int, rng *rand.Rand) ([]int, error) {
	return recursiveKWay(csr, k, rng, spectralBisection)
}

// spectralBisection is SpectralKWay's bisector: a Fiedler split, or a
// resource-halving BFS growth when the subgraph has no edges or the
// spectral split fails. The split's resource target is left to FM.
func spectralBisection(sub *graph.CSR, _ int64, rng *rand.Rand) []int {
	if sub.NumNodes() >= 2 && sub.NumEdges() > 0 {
		if bi, err := SpectralBisect(sub, rng); err == nil && bi != nil {
			return bi
		}
	}
	return growBisection(sub, sub.NodeWT/2, rng)
}
