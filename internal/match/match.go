// Package match implements the three matching heuristics the paper's
// coarsening phase runs in competition (§IV-A): Random Maximal Matching,
// Heavy-Edge Matching, and K-Means Matching. A matching pairs up adjacent
// nodes; the coarsener contracts every matched pair into one coarse node.
package match

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

// ErrUnknownHeuristic is returned (wrapped) by Compute when asked for a
// heuristic outside the known set.
var ErrUnknownHeuristic = errors.New("match: unknown heuristic")

// Unmatched marks a node left single by a matching.
const Unmatched graph.Node = -1

// Matching maps each node to its partner, or Unmatched. A valid matching
// is symmetric (m[u]==v ⇒ m[v]==u), irreflexive, and only pairs adjacent
// nodes.
type Matching []graph.Node

// NewMatching returns an all-unmatched matching over n nodes.
func NewMatching(n int) Matching {
	m := make(Matching, n)
	for i := range m {
		m[i] = Unmatched
	}
	return m
}

// Pairs returns the number of matched pairs.
func (m Matching) Pairs() int {
	c := 0
	for u, v := range m {
		if v != Unmatched && graph.Node(u) < v {
			c++
		}
	}
	return c
}

// Validate checks the matching invariants against g.
func (m Matching) Validate(g *graph.Graph) error {
	if len(m) != g.NumNodes() {
		return fmt.Errorf("match: length %d != nodes %d", len(m), g.NumNodes())
	}
	for u, v := range m {
		if v == Unmatched {
			continue
		}
		if v == graph.Node(u) {
			return fmt.Errorf("match: node %d matched to itself", u)
		}
		if int(v) < 0 || int(v) >= len(m) {
			return fmt.Errorf("match: node %d matched to out-of-range %d", u, v)
		}
		if m[v] != graph.Node(u) {
			return fmt.Errorf("match: asymmetric pair (%d,%d)", u, v)
		}
		if !g.HasEdge(graph.Node(u), v) {
			return fmt.Errorf("match: pair (%d,%d) not adjacent", u, v)
		}
	}
	return nil
}

// MatchedWeight returns the total weight of matched edges — the weight
// that contraction removes from the graph. Heavier is generally better:
// hidden intra-pair traffic can never be cut.
func (m Matching) MatchedWeight(g *graph.CSR) int64 {
	var s int64
	for u, v := range m {
		if v == Unmatched || graph.Node(u) >= v {
			continue
		}
		nbrs, wts := g.Row(graph.Node(u))
		for i, x := range nbrs {
			if x == v {
				s += wts[i]
				break
			}
		}
	}
	return s
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Heuristic names the matching strategies for options and reports.
type Heuristic int

const (
	// HeuristicRandom is Random Maximal Matching.
	HeuristicRandom Heuristic = iota
	// HeuristicHeavyEdge is Heavy-Edge Matching.
	HeuristicHeavyEdge
	// HeuristicKMeans is K-Means (weight-clustered) Matching.
	HeuristicKMeans
)

// String returns the heuristic's name.
func (h Heuristic) String() string {
	switch h {
	case HeuristicRandom:
		return "random"
	case HeuristicHeavyEdge:
		return "heavy-edge"
	case HeuristicKMeans:
		return "k-means"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// Valid reports whether h names one of the known heuristics.
func (h Heuristic) Valid() bool {
	switch h {
	case HeuristicRandom, HeuristicHeavyEdge, HeuristicKMeans:
		return true
	}
	return false
}

// UsesRNG reports whether the heuristic consumes random numbers. The
// parallel best-of-three matching keeps every RNG-consuming heuristic on
// one goroutine, in declaration order, sharing the level's stream — which
// is what makes the parallel coarsener draw the exact sequence a serial
// run would, bit for bit. RNG-free heuristics run concurrently.
func (h Heuristic) UsesRNG() bool {
	switch h {
	case HeuristicRandom, HeuristicKMeans:
		return true
	default:
		return false
	}
}

// Compute runs the named heuristic. kClusters is only used by KMeans; a
// value <= 0 defaults to 4 weight clusters. An unknown heuristic yields
// an error wrapping ErrUnknownHeuristic. It snapshots g once and matches
// on the snapshot.
func Compute(h Heuristic, g *graph.Graph, kClusters int, rng *rand.Rand) (Matching, error) {
	ws := arena.Get()
	defer arena.Put(ws)
	return ComputeWS(ws, h, g.ToCSR(), kClusters, rng)
}

// ComputeWS is Compute on a CSR, with every internal buffer (visit
// permutations, candidate lists, the edge sort array, k-means scratch)
// drawn from ws. The returned Matching itself is freshly allocated — it
// outlives the call — but everything transient is pooled.
func ComputeWS(ws *arena.Workspace, h Heuristic, g *graph.CSR, kClusters int, rng *rand.Rand) (Matching, error) {
	switch h {
	case HeuristicRandom:
		return randomWS(ws, g, rng), nil
	case HeuristicHeavyEdge:
		return heavyEdgeWS(ws, g), nil
	case HeuristicKMeans:
		if kClusters <= 0 {
			kClusters = 4
		}
		return kMeansWS(ws, g, kClusters, rng), nil
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownHeuristic, int(h))
	}
}

// permInto fills out with a random permutation of [0, len(out)), drawing
// from rng the exact sequence rand.Perm draws — same loop, same Intn
// calls — so pooled and allocating runs consume identical RNG streams.
// The i = 0 iteration is a no-op swap but still burns one Intn(1) draw,
// exactly as rand.Perm does (its loop keeps that draw for Go 1 stream
// compatibility); starting at i = 1 would desynchronize every RNG
// consumer downstream of a matching pass.
func permInto(rng *rand.Rand, out []int) {
	for i := 0; i < len(out); i++ {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = i
	}
}

// randomWS computes a Random Maximal Matching: nodes are visited in
// random order; each unmatched node grabs a random unmatched neighbor. The
// result is maximal: no edge has both endpoints unmatched. The visit order
// and candidate list are pooled.
func randomWS(ws *arena.Workspace, g *graph.CSR, rng *rand.Rand) Matching {
	n := g.NumNodes()
	m := NewMatching(n)
	order := ws.Ints.Cap(n)[:n]
	permInto(rng, order)
	cand := ws.Nodes.Cap(8)
	for _, ui := range order {
		u := graph.Node(ui)
		if m[u] != Unmatched {
			continue
		}
		cand = cand[:0]
		nbrs, _ := g.Row(u)
		for _, v := range nbrs {
			if m[v] == Unmatched {
				cand = append(cand, v)
			}
		}
		if len(cand) == 0 {
			continue
		}
		v := cand[rng.Intn(len(cand))]
		m[u], m[v] = v, u
	}
	ws.Ints.Put(order)
	ws.Nodes.Put(cand)
	return m
}

// heavyEdgeWS computes a Heavy-Edge Matching: edges are visited in
// descending weight order (ties broken by endpoint ids for determinism)
// and selected when both endpoints are free. This is the matching that
// most reduces the exposed edge weight, per Karypis–Kumar.
//
// The order is a total order (edges are unique by endpoint pair), so the
// sorted sequence — and hence the matching — is independent of the
// sorting algorithm. When the sort key fits, edges are packed into single
// int64 keys — (inverted weight, u, v) in descending-weight
// lexicographic layout — and radix-sorted in O(m·digits), digits being
// the 11-bit digits below the keys' top bit (sortPackedKeys); the packed
// integer order is exactly the comparator's, so the matching is
// bit-identical to heavyEdgeComparatorWS, which remains as the general
// fallback. The key and edge arrays are pooled.
func heavyEdgeWS(ws *arena.Workspace, g *graph.CSR) Matching {
	n := g.NumNodes()
	if idBits := bits.Len(uint(n)); n > 0 && 2*idBits < 63 &&
		g.EdgeWT < int64(1)<<(63-2*idBits) {
		return heavyEdgePackedWS(ws, g, uint(idBits))
	}
	return heavyEdgeComparatorWS(ws, g)
}

// heavyEdgeComparatorWS is heavyEdgeWS over an edge array sorted by a
// comparator: weight descending, then u, then v ascending.
func heavyEdgeComparatorWS(ws *arena.Workspace, g *graph.CSR) Matching {
	n := g.NumNodes()
	edges := ws.Edges.Cap(g.NumEdges())
	for u := 0; u < n; u++ {
		nbrs, wts := g.Row(graph.Node(u))
		for i, v := range nbrs {
			if graph.Node(u) < v {
				edges = append(edges, graph.Edge{U: graph.Node(u), V: v, Weight: wts[i]})
			}
		}
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		switch {
		case a.Weight != b.Weight:
			if a.Weight > b.Weight {
				return -1
			}
			return 1
		case a.U != b.U:
			return int(a.U) - int(b.U)
		default:
			return int(a.V) - int(b.V)
		}
	})
	m := NewMatching(n)
	for _, e := range edges {
		if m[e.U] == Unmatched && m[e.V] == Unmatched {
			m[e.U], m[e.V] = e.V, e.U
		}
	}
	ws.Edges.Put(edges)
	return m
}

// heavyEdgePackedWS is the packed-key fast path of heavyEdgeWS. Every
// weight is bounded by the total edge weight, so invW = total - w is
// non-negative and ascending invW is descending w; placing invW in the
// high bits and u, v (each < 2^idBits) below yields an integer whose
// natural order is the comparator's (weight desc, u asc, v asc). Keys are
// unique (one per endpoint pair), so sort stability is irrelevant.
func heavyEdgePackedWS(ws *arena.Workspace, g *graph.CSR, idBits uint) Matching {
	n := g.NumNodes()
	total := g.EdgeWT
	mask := int64(1)<<idBits - 1
	keys := ws.Int64s.Cap(g.NumEdges())
	for u := 0; u < n; u++ {
		nbrs, wts := g.Row(graph.Node(u))
		for i, v := range nbrs {
			if graph.Node(u) < v {
				keys = append(keys, (total-wts[i])<<(2*idBits)|
					int64(u)<<idBits|int64(v))
			}
		}
	}
	keys = sortPackedKeys(ws, keys)
	m := NewMatching(n)
	for _, key := range keys {
		u := graph.Node(key >> idBits & mask)
		v := graph.Node(key & mask)
		if m[u] == Unmatched && m[v] == Unmatched {
			m[u], m[v] = v, u
		}
	}
	ws.Int64s.Put(keys)
	return m
}

// radixBits is the digit width of sortPackedKeys: 2048 counters per
// digit stay in L1, and a 56-bit key takes 6 scatter passes.
const radixBits = 11

// sortPackedKeys sorts non-negative keys ascending and returns the sorted
// slice, which is either keys or a buffer from ws.Int64s; the other one
// goes back to ws. Below 256 keys it calls slices.Sort. Otherwise it runs
// an LSD radix sort over the 11-bit digits below the top bit of the OR
// of all keys: one sweep builds every digit's histogram, then each digit
// that not all keys share takes one scatter. Equal keys keep their input
// order, and for unique keys the result is the one order any sort
// yields.
func sortPackedKeys(ws *arena.Workspace, keys []int64) []int64 {
	if len(keys) < 256 {
		slices.Sort(keys)
		return keys
	}
	var or uint64
	for _, k := range keys {
		or |= uint64(k)
	}
	const radix = 1 << radixBits
	digits := (bits.Len64(or) + radixBits - 1) / radixBits
	counts := ws.Ints.Get(digits * radix)
	for _, k := range keys {
		x := uint64(k)
		for d := 0; d < digits; d++ {
			counts[d*radix+int(x>>(d*radixBits)&(radix-1))]++
		}
	}
	src, dst := keys, ws.Int64s.Cap(len(keys))[:len(keys)]
	for d := 0; d < digits; d++ {
		shift := d * radixBits
		count := counts[d*radix : (d+1)*radix]
		if count[uint64(src[0])>>shift&(radix-1)] == len(src) {
			continue // every key shares this digit
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, k := range src {
			b := uint64(k) >> shift & (radix - 1)
			dst[count[b]] = k
			count[b]++
		}
		src, dst = dst, src
	}
	ws.Ints.Put(counts)
	ws.Int64s.Put(dst)
	return src
}

// kMeansWS computes the paper's K-Means Matching: nodes are clustered by
// node weight into nClusters groups (1-D k-means on the weight axis), and
// matching is attempted preferentially inside a cluster — pairing
// similar-weight processes keeps coarse node weights homogeneous, which
// eases the resource-balancing of the initial partitioner. Nodes whose
// cluster offers no free adjacent partner fall back to any free neighbor
// so the matching stays maximal. The cluster table, visit order,
// candidate lists, and Lloyd-iteration scratch are pooled.
func kMeansWS(ws *arena.Workspace, g *graph.CSR, nClusters int, rng *rand.Rand) Matching {
	n := g.NumNodes()
	m := NewMatching(n)
	if n == 0 {
		return m
	}
	if nClusters < 1 {
		nClusters = 1
	}
	if nClusters > n {
		nClusters = n
	}
	cluster := kmeans1DWS(ws, g, nClusters)

	order := ws.Ints.Cap(n)[:n]
	permInto(rng, order)
	sameCluster := ws.Nodes.Cap(8)
	other := ws.Nodes.Cap(8)
	for _, ui := range order {
		u := graph.Node(ui)
		if m[u] != Unmatched {
			continue
		}
		sameCluster = sameCluster[:0]
		other = other[:0]
		nbrs, _ := g.Row(u)
		for _, v := range nbrs {
			if m[v] != Unmatched {
				continue
			}
			if cluster[v] == cluster[u] {
				sameCluster = append(sameCluster, v)
			} else {
				other = append(other, v)
			}
		}
		var v graph.Node
		switch {
		case len(sameCluster) > 0:
			v = sameCluster[rng.Intn(len(sameCluster))]
		case len(other) > 0:
			v = other[rng.Intn(len(other))]
		default:
			continue
		}
		m[u], m[v] = v, u
	}
	ws.Ints.Put(order)
	ws.Ints.Put(cluster)
	ws.Nodes.Put(sameCluster)
	ws.Nodes.Put(other)
	return m
}

// kmeans1DWS clusters the node weights into k groups by 1-D Lloyd
// iteration: centroids start at evenly spaced quantiles of the sorted
// weights; each iteration assigns every weight to its nearest centroid
// (the lowest index on ties), then moves each centroid to the mean of its
// nodes; at most 30 iterations, stopping at the first that changes no
// assignment. Nodes of equal weight always share a cluster, so the
// assignment runs over the D distinct weights the sort yields, in
// O(D·k), and the nodes take their cluster once, from the last
// iteration's assignment. The centroid sums still add the node weights
// in node order, so every float — and the result — is the per-node
// iteration's for any int64 weights. Cost O(n log n + iterations·(n +
// D·k)). The returned cluster table comes from ws.Ints; the caller puts
// it back, and every other buffer is drawn from ws too.
func kmeans1DWS(ws *arena.Workspace, g *graph.CSR, k int) []int {
	n := g.NumNodes()
	cluster := ws.Ints.Get(n)
	if k == 1 || n <= k {
		for i := range cluster {
			if n <= k {
				cluster[i] = i % k
			}
		}
		return cluster
	}
	wts := ws.Floats.Cap(n)[:n]
	for u := 0; u < n; u++ {
		wts[u] = float64(g.NodeW[u])
	}
	sorted := append(ws.Floats.Cap(n), wts...)
	slices.Sort(sorted)
	centroids := ws.Floats.Cap(k)[:k]
	for i := range centroids {
		centroids[i] = sorted[(i*(n-1))/(k-1)]
	}
	distinct := slices.Compact(sorted)
	// which[u] indexes u's weight in distinct; dcl holds each distinct
	// weight's cluster, all 0 before the first iteration like cluster.
	which := ws.Ints.Cap(n)[:n]
	for u, w := range wts {
		which[u], _ = slices.BinarySearch(distinct, w)
	}
	dcl := ws.Ints.Get(len(distinct))
	sum := ws.Floats.Cap(k)[:k]
	cnt := ws.Ints.Cap(k)[:k]
	for iter := 0; iter < 30; iter++ {
		changed := false
		for i, w := range distinct {
			best, bestD := 0, absF(w-centroids[0])
			for c := 1; c < k; c++ {
				d := absF(w - centroids[c])
				if d < bestD {
					best, bestD = c, d
				}
			}
			if dcl[i] != best {
				dcl[i] = best
				changed = true
			}
		}
		for c := 0; c < k; c++ {
			sum[c], cnt[c] = 0, 0
		}
		for u, i := range which {
			c := dcl[i]
			sum[c] += wts[u]
			cnt[c]++
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
	for u, i := range which {
		cluster[u] = dcl[i]
	}
	ws.Floats.Put(wts)
	ws.Floats.Put(sorted)
	ws.Floats.Put(centroids)
	ws.Floats.Put(sum)
	ws.Ints.Put(which)
	ws.Ints.Put(dcl)
	ws.Ints.Put(cnt)
	return cluster
}

// All lists every heuristic, in the order the paper names them.
func All() []Heuristic {
	return []Heuristic{HeuristicRandom, HeuristicHeavyEdge, HeuristicKMeans}
}
