// Package server is the partitioning service behind the ppnd daemon: an
// HTTP JSON API that accepts partition jobs (graph + constraints + GP
// options), runs them on a bounded worker pool with per-job deadlines and
// cancellation, coalesces identical in-flight requests, and serves
// completed results from a bounded LRU cache keyed by a canonical hash of
// (graph, options). See DESIGN.md for the scheduler and cache model.
package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/refine"
)

// Request limits. Requests beyond these bounds are rejected before any
// graph is built, so a hostile payload cannot make the daemon allocate
// proportionally to a forged header.
const (
	// MaxBodyBytes bounds the JSON body of a job submission.
	MaxBodyBytes = 16 << 20
	// MaxNodes bounds the node count of a submitted graph.
	MaxNodes = 200_000
	// MaxEdges bounds the edge count of a submitted graph.
	MaxEdges = 2_000_000
)

// ErrBadRequest is the base of every request-validation error; handlers
// map it to HTTP 400.
var ErrBadRequest = errors.New("invalid job request")

// NodeSpec is one graph vertex on the wire (same shape as the graph JSON
// file format: dense ids, non-negative weights).
type NodeSpec struct {
	ID     int    `json:"id"`
	Weight int64  `json:"weight"`
	Name   string `json:"name,omitempty"`
}

// EdgeSpec is one undirected weighted edge on the wire.
type EdgeSpec struct {
	U      int   `json:"u"`
	V      int   `json:"v"`
	Weight int64 `json:"weight"`
}

// HyperEdgeSpec is one fanout net on the wire: Pins[0] is the writer,
// the rest the distinct readers of one broadcast stream, Weight the
// stream's token volume (same shape as the graph JSON file format).
type HyperEdgeSpec struct {
	Pins   []int `json:"pins"`
	Weight int64 `json:"weight"`
}

// GraphSpec is the wire form of a process graph.
type GraphSpec struct {
	Nodes []NodeSpec `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
	// HyperEdges optionally carries fanout nets; the partitioner then
	// charges connectivity-1 cost per net instead of per pairwise leg.
	HyperEdges []HyperEdgeSpec `json:"hyperedges,omitempty"`
}

// JobOptions tunes the GP search per job. Zero values take the solver
// defaults (core.Options.withDefaults).
type JobOptions struct {
	// Seed makes the run reproducible; 0 means the solver default (1).
	Seed int64 `json:"seed,omitempty"`
	// MaxCycles bounds the cyclic re-coarsen iterations.
	MaxCycles int `json:"max_cycles,omitempty"`
	// Restarts is the number of greedy initial-partition restarts.
	Restarts int `json:"restarts,omitempty"`
	// CoarsenTarget stops coarsening at this many nodes.
	CoarsenTarget int `json:"coarsen_target,omitempty"`
	// RefinePasses bounds each local-search stage per level.
	RefinePasses int `json:"refine_passes,omitempty"`
	// Refine selects the refinement strategy: "auto" (default, batch
	// above the solver's size threshold), "serial" or "batch".
	Refine string `json:"refine,omitempty"`
	// MinimizeAfterFeasible keeps cycling after feasibility for lower cut.
	MinimizeAfterFeasible bool `json:"minimize_after_feasible,omitempty"`
	// Algo selects the partitioner: "gp" (default, the multilevel
	// search) or "stream" (the single-pass streaming + restreaming fast
	// path for huge graphs).
	Algo string `json:"algo,omitempty"`
	// StreamIterations caps the restream passes ("stream" algo and the
	// gp stream seeder); 0 takes the solver defaults.
	StreamIterations int `json:"stream_iterations,omitempty"`
	// Replicate runs the post-refinement logic-replication pass; the
	// replica overlay comes back in the result's replicas vector.
	Replicate bool `json:"replicate,omitempty"`
	// MaxClones bounds the replication pass (0 = refine.DefaultMaxClones).
	MaxClones int `json:"max_clones,omitempty"`
}

// JobRequest is the body of POST /partition.
type JobRequest struct {
	// Graph is the process graph to partition.
	Graph GraphSpec `json:"graph"`
	// K is the number of partitions (FPGAs). Required, positive.
	K int `json:"k"`
	// Bmax bounds every pairwise inter-partition bandwidth; 0 disables.
	Bmax int64 `json:"bmax"`
	// Rmax bounds every partition's resource total; 0 disables.
	Rmax int64 `json:"rmax"`
	// Options tunes the search.
	Options JobOptions `json:"options"`
	// TimeoutMS caps the solve wall-clock; 0 takes the server default.
	// The solver stops at the deadline and returns its best partition so
	// far flagged as deadline-exceeded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes POST /partition return 202 with a job id to poll
	// instead of blocking until the solve completes.
	Async bool `json:"async,omitempty"`
	// Priority classifies the job for admission control: "low", "normal"
	// (the default) or "high". Under load the daemon sheds low-priority
	// jobs first (at half queue capacity), then normal (near capacity);
	// high-priority jobs are refused only at the hard queue bound. Like
	// Async, priority shapes delivery, not the result, so it does not
	// enter the cache key.
	Priority string `json:"priority,omitempty"`
}

// Priority classes accepted on the wire.
const (
	PriorityLow    = "low"
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// PriorityClass normalizes the request's priority ("" means normal).
func (req *JobRequest) PriorityClass() string {
	if req.Priority == "" {
		return PriorityNormal
	}
	return req.Priority
}

// DecodeJobRequest parses and validates a job submission, returning the
// request and the built graph. Every validation failure wraps
// ErrBadRequest.
func DecodeJobRequest(r io.Reader) (*JobRequest, *graph.Graph, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Trailing garbage after the JSON document is a malformed request.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, nil, fmt.Errorf("%w: trailing data after request body", ErrBadRequest)
	}
	g, err := req.BuildGraph()
	if err != nil {
		return nil, nil, err
	}
	if err := req.Validate(g); err != nil {
		return nil, nil, err
	}
	return &req, g, nil
}

// BuildGraph materializes the GraphSpec, enforcing the same rules as the
// graph JSON reader: dense ids, non-negative weights, valid edges.
func (req *JobRequest) BuildGraph() (*graph.Graph, error) {
	n := len(req.Graph.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("%w: graph has no nodes", ErrBadRequest)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds limit %d", ErrBadRequest, n, MaxNodes)
	}
	if len(req.Graph.Edges) > MaxEdges {
		return nil, fmt.Errorf("%w: %d edges exceeds limit %d", ErrBadRequest, len(req.Graph.Edges), MaxEdges)
	}
	if len(req.Graph.HyperEdges) > MaxEdges {
		return nil, fmt.Errorf("%w: %d hyperedges exceeds limit %d", ErrBadRequest, len(req.Graph.HyperEdges), MaxEdges)
	}
	w := make([]int64, n)
	names := make([]string, n)
	seen := make([]bool, n)
	for _, nd := range req.Graph.Nodes {
		if nd.ID < 0 || nd.ID >= n {
			return nil, fmt.Errorf("%w: node id %d not dense in [0,%d)", ErrBadRequest, nd.ID, n)
		}
		if seen[nd.ID] {
			return nil, fmt.Errorf("%w: duplicate node id %d", ErrBadRequest, nd.ID)
		}
		seen[nd.ID] = true
		if nd.Weight < 0 {
			return nil, fmt.Errorf("%w: node %d has negative weight %d", ErrBadRequest, nd.ID, nd.Weight)
		}
		w[nd.ID] = nd.Weight
		names[nd.ID] = nd.Name
	}
	g := graph.NewWithWeights(w)
	for i, name := range names {
		if name != "" {
			g.SetName(graph.Node(i), name)
		}
	}
	for _, e := range req.Graph.Edges {
		if e.Weight < 0 {
			return nil, fmt.Errorf("%w: edge (%d,%d) has negative weight %d", ErrBadRequest, e.U, e.V, e.Weight)
		}
		if err := g.AddEdge(graph.Node(e.U), graph.Node(e.V), e.Weight); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	for i, he := range req.Graph.HyperEdges {
		pins := make([]graph.Node, len(he.Pins))
		for j, p := range he.Pins {
			pins[j] = graph.Node(p)
		}
		if err := g.AddHyperEdge(pins, he.Weight); err != nil {
			return nil, fmt.Errorf("%w: hyperedge %d: %v", ErrBadRequest, i, err)
		}
	}
	return g, nil
}

// Validate checks the solver parameters against the built graph, reusing
// the solver's own typed option validation.
func (req *JobRequest) Validate(g *graph.Graph) error {
	if err := req.CoreOptions().Validate(g); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Options.MaxCycles < 0 {
		return fmt.Errorf("%w: max_cycles = %d is negative", ErrBadRequest, req.Options.MaxCycles)
	}
	if req.Options.CoarsenTarget < 0 {
		return fmt.Errorf("%w: coarsen_target = %d is negative", ErrBadRequest, req.Options.CoarsenTarget)
	}
	if req.Options.RefinePasses < 0 {
		return fmt.Errorf("%w: refine_passes = %d is negative", ErrBadRequest, req.Options.RefinePasses)
	}
	if _, err := engine.ParseRefineMode(req.Options.Refine); err != nil {
		return fmt.Errorf("%w: refine %q (want auto, serial or batch)", ErrBadRequest, req.Options.Refine)
	}
	if _, err := core.ParseAlgorithm(req.Options.Algo); err != nil {
		return fmt.Errorf("%w: algo %q (want gp or stream)", ErrBadRequest, req.Options.Algo)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("%w: timeout_ms = %d is negative", ErrBadRequest, req.TimeoutMS)
	}
	switch req.Priority {
	case "", PriorityLow, PriorityNormal, PriorityHigh:
	default:
		return fmt.Errorf("%w: priority %q (want low, normal or high)", ErrBadRequest, req.Priority)
	}
	return nil
}

// CoreOptions converts the request into solver options.
func (req *JobRequest) CoreOptions() core.Options {
	// Validate runs ParseRefineMode/ParseAlgorithm first; an unparseable
	// value never reaches the solver, so the errors can only echo the
	// zero modes here.
	refineMode, _ := engine.ParseRefineMode(req.Options.Refine)
	algo, _ := core.ParseAlgorithm(req.Options.Algo)
	return core.Options{
		K:                     req.K,
		Constraints:           metrics.Constraints{Bmax: req.Bmax, Rmax: req.Rmax},
		Seed:                  req.Options.Seed,
		MaxCycles:             req.Options.MaxCycles,
		Restarts:              req.Options.Restarts,
		CoarsenTarget:         req.Options.CoarsenTarget,
		RefinePasses:          req.Options.RefinePasses,
		Refine:                refineMode,
		MinimizeAfterFeasible: req.Options.MinimizeAfterFeasible,
		Algo:                  algo,
		StreamIterations:      req.Options.StreamIterations,
		Replicate:             req.Options.Replicate,
		MaxClones:             req.Options.MaxClones,
	}
}

// Timeout returns the per-job deadline, falling back to def.
func (req *JobRequest) Timeout(def time.Duration) time.Duration {
	if req.TimeoutMS > 0 {
		return time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return def
}

// CacheKey is the canonical hash of (graph, solver options). Two requests
// with the same key are guaranteed to produce the same partition (the
// solver is deterministic in its inputs), so the key both deduplicates
// in-flight work and addresses the result cache. Async/timeout fields do
// not enter the key: they shape how a result is delivered, not what it is.
func (req *JobRequest) CacheKey(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wi(int64(g.NumNodes()))
	for u := 0; u < g.NumNodes(); u++ {
		wi(g.NodeWeight(graph.Node(u)))
	}
	// Edges() is already canonical (U <= V, sorted by (U,V)), so edge
	// insertion order does not perturb the key.
	edges := g.Edges()
	wi(int64(len(edges)))
	for _, e := range edges {
		wi(int64(e.U))
		wi(int64(e.V))
		wi(e.Weight)
	}
	// Hyperedges are hashed in insertion order with their pin lists; the
	// builder preserves the request's order, so identical requests agree.
	wi(int64(g.NumHyperEdges()))
	for i := 0; i < g.NumHyperEdges(); i++ {
		he := g.HyperEdge(i)
		wi(he.Weight)
		wi(int64(len(he.Pins)))
		for _, p := range he.Pins {
			wi(int64(p))
		}
	}
	wi(int64(req.K))
	wi(req.Bmax)
	wi(req.Rmax)
	wi(req.Options.Seed)
	wi(int64(req.Options.MaxCycles))
	wi(int64(req.Options.Restarts))
	wi(int64(req.Options.CoarsenTarget))
	wi(int64(req.Options.RefinePasses))
	// Modes are hashed in parsed form so "" and "auto"/"gp" (the same
	// effective configurations) share a cache entry.
	refineMode, _ := engine.ParseRefineMode(req.Options.Refine)
	wi(int64(refineMode))
	algo, _ := core.ParseAlgorithm(req.Options.Algo)
	wi(int64(algo))
	wi(int64(req.Options.StreamIterations))
	if req.Options.MinimizeAfterFeasible {
		wi(1)
	} else {
		wi(0)
	}
	// Replication changes the delivered overlay (and the goodness), so it
	// must split the cache. The clone budget is hashed in effective form:
	// 0 when replication is off (the budget is unused), else defaulted, so
	// an omitted max_clones and the default value share a cache entry.
	clones := 0
	if req.Options.Replicate {
		wi(1)
		clones = req.Options.MaxClones
		if clones <= 0 {
			clones = refine.DefaultMaxClones
		}
	} else {
		wi(0)
	}
	wi(int64(clones))
	return hex.EncodeToString(h.Sum(nil))
}
