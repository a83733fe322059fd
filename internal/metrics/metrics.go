// Package metrics computes the quantities the paper's evaluation reports:
// the global edge cut, the pairwise ("local") bandwidth matrix, the maximum
// local bandwidth, per-partition resource totals, the maximum resource
// allocation, balance factors, and the goodness function GP uses to rank
// intermediate clusterings.
//
// Throughout, a partition is an assignment vector parts[u] ∈ [0, K) over
// the nodes of a graph.
package metrics

import (
	"fmt"

	"ppnpart/internal/graph"
)

// Validate checks that parts is a well-formed assignment of every node of g
// into [0, k).
func Validate(g *graph.Graph, parts []int, k int) error {
	if len(parts) != g.NumNodes() {
		return fmt.Errorf("metrics: assignment length %d != nodes %d", len(parts), g.NumNodes())
	}
	if k <= 0 {
		return fmt.Errorf("metrics: k = %d must be positive", k)
	}
	for u, p := range parts {
		if p < 0 || p >= k {
			return fmt.Errorf("metrics: node %d assigned to part %d outside [0,%d)", u, p, k)
		}
	}
	return nil
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different parts (the paper's "Global Edge Cut Sum").
func EdgeCut(g *graph.Graph, parts []int) int64 {
	var cut int64
	for u := 0; u < g.NumNodes(); u++ {
		for _, h := range g.Neighbors(graph.Node(u)) {
			if graph.Node(u) < h.To && parts[u] != parts[h.To] {
				cut += h.Weight
			}
		}
	}
	return cut
}

// BandwidthMatrix returns the K×K symmetric matrix whose (i,j) entry is the
// total weight of edges between part i and part j — the sustained traffic
// each pair of FPGAs must carry. The diagonal is zero.
func BandwidthMatrix(g *graph.Graph, parts []int, k int) [][]int64 {
	m := make([][]int64, k)
	for i := range m {
		m[i] = make([]int64, k)
	}
	for u := 0; u < g.NumNodes(); u++ {
		pu := parts[u]
		for _, h := range g.Neighbors(graph.Node(u)) {
			if graph.Node(u) >= h.To {
				continue
			}
			pv := parts[h.To]
			if pu != pv {
				m[pu][pv] += h.Weight
				m[pv][pu] += h.Weight
			}
		}
	}
	return m
}

// MaxLocalBandwidth returns the largest entry of the bandwidth matrix —
// the paper's "Maximum Local bandwidth" column.
func MaxLocalBandwidth(g *graph.Graph, parts []int, k int) int64 {
	m := BandwidthMatrix(g, parts, k)
	var best int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if m[i][j] > best {
				best = m[i][j]
			}
		}
	}
	return best
}

// PartResources returns the total node weight (resource consumption) of
// each part.
func PartResources(g *graph.Graph, parts []int, k int) []int64 {
	r := make([]int64, k)
	for u := 0; u < g.NumNodes(); u++ {
		r[parts[u]] += g.NodeWeight(graph.Node(u))
	}
	return r
}

// MaxResource returns the largest per-part resource total — the paper's
// "Maximum Resource Allocation" column.
func MaxResource(g *graph.Graph, parts []int, k int) int64 {
	var best int64
	for _, r := range PartResources(g, parts, k) {
		if r > best {
			best = r
		}
	}
	return best
}

// Imbalance returns max_i(resource_i) / (total/K) — 1.0 means perfectly
// balanced. Returns 0 for an empty graph.
func Imbalance(g *graph.Graph, parts []int, k int) float64 {
	return imbalance(MaxResource(g, parts, k), g.TotalNodeWeight(), k)
}

// imbalance is maxRes / (total/K), or 0 when total is 0.
func imbalance(maxRes, total int64, k int) float64 {
	if total == 0 {
		return 0
	}
	ideal := float64(total) / float64(k)
	return float64(maxRes) / ideal
}

// PartSizes returns the number of nodes in each part.
func PartSizes(parts []int, k int) []int {
	s := make([]int, k)
	for _, p := range parts {
		s[p]++
	}
	return s
}

// Constraints captures the paper's two mapping constraints.
type Constraints struct {
	// Bmax bounds the bandwidth between every pair of partitions
	// (inter-FPGA link capacity). Zero means unconstrained; negative
	// values are rejected by core option validation.
	Bmax int64
	// Rmax bounds the resource total of every partition (FPGA capacity).
	// Zero means unconstrained; negative values are rejected by core
	// option validation.
	Rmax int64
	// RmaxPart optionally overrides Rmax per partition for heterogeneous
	// platforms (a big FPGA next to a small one). Entry p bounds part p; a
	// non-positive entry falls back to the scalar Rmax. Nil means every
	// part uses Rmax.
	RmaxPart []int64
}

// RmaxFor returns the resource bound of part p: its RmaxPart entry when
// positive, else the scalar Rmax.
func (c Constraints) RmaxFor(p int) int64 {
	if p >= 0 && p < len(c.RmaxPart) {
		if r := c.RmaxPart[p]; r > 0 {
			return r
		}
	}
	return c.Rmax
}

// Unconstrained reports whether no bound is active.
func (c Constraints) Unconstrained() bool {
	if c.Bmax > 0 || c.Rmax > 0 {
		return false
	}
	for _, r := range c.RmaxPart {
		if r > 0 {
			return false
		}
	}
	return true
}

// Violation describes one violated constraint instance.
type Violation struct {
	// Kind is "bandwidth" or "resource".
	Kind string
	// PartA, PartB identify the offending pair for bandwidth violations;
	// for resource violations PartA is the offending part and PartB is -1.
	PartA, PartB int
	// Value is the measured quantity, Limit the bound it exceeds.
	Value, Limit int64
}

func (v Violation) String() string {
	if v.Kind == "bandwidth" {
		return fmt.Sprintf("bandwidth(%d,%d)=%d > Bmax=%d", v.PartA, v.PartB, v.Value, v.Limit)
	}
	return fmt.Sprintf("resource(%d)=%d > Rmax=%d", v.PartA, v.Value, v.Limit)
}

// CheckConstraints returns every violated constraint instance (empty slice
// means the partition is feasible).
func CheckConstraints(g *graph.Graph, parts []int, k int, c Constraints) []Violation {
	var m [][]int64
	if c.Bmax > 0 {
		m = BandwidthMatrix(g, parts, k)
	}
	var r []int64
	if c.Rmax > 0 || len(c.RmaxPart) > 0 {
		r = PartResources(g, parts, k)
	}
	return violations(m, r, k, c)
}

// violations lists the bound violations of a bandwidth matrix m and
// resource vector r: bandwidth pairs first, then resource parts. m is
// read only when Bmax is set; a nil r has no resource violations.
func violations(m [][]int64, r []int64, k int, c Constraints) []Violation {
	var out []Violation
	if c.Bmax > 0 {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if m[i][j] > c.Bmax {
					out = append(out, Violation{Kind: "bandwidth", PartA: i, PartB: j, Value: m[i][j], Limit: c.Bmax})
				}
			}
		}
	}
	for i, ri := range r {
		if lim := c.RmaxFor(i); lim > 0 && ri > lim {
			out = append(out, Violation{Kind: "resource", PartA: i, PartB: -1, Value: ri, Limit: lim})
		}
	}
	return out
}

// Feasible reports whether the partition satisfies both constraints.
func Feasible(g *graph.Graph, parts []int, k int, c Constraints) bool {
	return len(CheckConstraints(g, parts, k, c)) == 0
}

// Goodness scores a candidate partition: lower is better. Feasible
// partitions score as their edge cut; infeasible ones score as a large
// penalty proportional to the total constraint excess, so that the search
// (a) always prefers any feasible partition over any infeasible one, and
// (b) among infeasible ones prefers the one "nearest to meeting the
// constraints" — exactly the a-posteriori comparison of intermediate
// clusterings described in §IV of the paper.
func Goodness(g *graph.Graph, parts []int, k int, c Constraints) float64 {
	cut := EdgeCut(g, parts)
	var excess int64
	for _, v := range CheckConstraints(g, parts, k, c) {
		excess += v.Value - v.Limit
	}
	if excess == 0 {
		return float64(cut)
	}
	// Any infeasible candidate must rank strictly worse than any feasible
	// one: the penalty base exceeds the largest possible cut.
	base := float64(g.TotalEdgeWeight() + 1)
	return base + float64(excess)*base + float64(cut)
}

// Report is a complete evaluation of a partition — the four columns of the
// paper's tables plus feasibility detail.
type Report struct {
	K       int
	EdgeCut int64
	// HyperCut is the connectivity-1 cost of the graph's hyperedges
	// (zero when the graph carries none).
	HyperCut          int64
	MaxLocalBandwidth int64
	MaxResource       int64
	PartResources     []int64
	PartSizes         []int
	Imbalance         float64
	Violations        []Violation
	Feasible          bool
}

// Evaluate builds a Report for the given partition under the constraints.
// It walks the adjacency once, into one bandwidth matrix, and sums one
// resource vector; the cut (the matrix's upper-triangle sum), the maxima,
// the imbalance and the violations all derive from those two, so every
// field equals its standalone function's value.
func Evaluate(g *graph.Graph, parts []int, k int, c Constraints) Report {
	m := BandwidthMatrix(g, parts, k)
	r := PartResources(g, parts, k)
	var cut, maxBW, maxRes int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			cut += m[i][j]
			if m[i][j] > maxBW {
				maxBW = m[i][j]
			}
		}
	}
	for _, ri := range r {
		if ri > maxRes {
			maxRes = ri
		}
	}
	viol := violations(m, r, k, c)
	return Report{
		K:                 k,
		EdgeCut:           cut,
		HyperCut:          HyperCut(g, parts),
		MaxLocalBandwidth: maxBW,
		MaxResource:       maxRes,
		PartResources:     r,
		PartSizes:         PartSizes(parts, k),
		Imbalance:         imbalance(maxRes, g.TotalNodeWeight(), k),
		Violations:        viol,
		Feasible:          len(viol) == 0,
	}
}

// String renders the report in the layout of the paper's tables.
func (r Report) String() string {
	return fmt.Sprintf("cut=%d maxLocalBW=%d maxRes=%d imbalance=%.3f feasible=%v",
		r.EdgeCut, r.MaxLocalBandwidth, r.MaxResource, r.Imbalance, r.Feasible)
}
