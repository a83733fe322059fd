package main

import (
	"fmt"

	"ppnpart/internal/core"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/server"
)

// The oracle recomputes every reported number from the assignment with
// internal/metrics, the from-scratch reference the incremental solver state
// is itself tested against.

// checkParts verifies that parts assigns every node of g to a part in
// [0,k).
func checkParts(g *graph.Graph, parts []int, k int) error {
	if len(parts) != g.NumNodes() {
		return fmt.Errorf("assignment has %d entries for %d nodes", len(parts), g.NumNodes())
	}
	for u, p := range parts {
		if p < 0 || p >= k {
			return fmt.Errorf("node %d assigned to part %d outside [0,%d)", u, p, k)
		}
	}
	return nil
}

// checkSolve recomputes a core.Result against its case and returns the
// reference later solves must reproduce. Every solve workload's
// constraints are feasible by construction, so an infeasible result is a
// failure too.
func checkSolve(c solveCase, res *core.Result) (solveRef, error) {
	g, k, cons := c.g, c.opts.K, c.opts.Constraints
	fail := func(format string, args ...any) (solveRef, error) {
		return solveRef{}, fmt.Errorf("%s: "+format, append([]any{c.name}, args...)...)
	}
	if res.Stopped {
		return fail("solve stopped early: %s", res.Message)
	}
	if res.K != k {
		return fail("result K = %d, want %d", res.K, k)
	}
	if err := checkParts(g, res.Parts, k); err != nil {
		return fail("%v", err)
	}
	parts, rep := res.Parts, res.Report
	if got, want := rep.EdgeCut, metrics.EdgeCut(g, parts); got != want {
		return fail("reported cut %d, recomputed %d", got, want)
	}
	if got, want := rep.HyperCut, metrics.HyperCut(g, parts); got != want {
		return fail("reported hyperedge cut %d, recomputed %d", got, want)
	}
	if got, want := rep.MaxLocalBandwidth, metrics.MaxLocalBandwidth(g, parts, k); got != want {
		return fail("reported max local bandwidth %d, recomputed %d", got, want)
	}
	if got, want := rep.MaxResource, metrics.MaxResource(g, parts, k); got != want {
		return fail("reported max resource %d, recomputed %d", got, want)
	}
	if got, want := rep.Feasible, metrics.Feasible(g, parts, k, cons); got != want {
		return fail("report says feasible=%v, recomputed %v", got, want)
	}
	edge, hyper, feasible := rep.EdgeCut, rep.HyperCut, rep.Feasible
	if res.Replicas != nil {
		if err := checkReplicas(res.Replicas, parts, k, res.ReplicatedNodes); err != nil {
			return fail("%v", err)
		}
		edge = metrics.ReplicatedEdgeCut(g, parts, res.Replicas)
		hyper = metrics.ReplicatedHyperCut(g, parts, res.Replicas)
		feasible = replicatedFeasible(g, parts, res.Replicas, k, cons)
	}
	if res.Feasible != feasible {
		return fail("result says feasible=%v, recomputed %v", res.Feasible, feasible)
	}
	if !res.Feasible {
		return fail("no feasible partition for constraints built to be met: %s", res.Message)
	}
	// A feasible score is the delivered objective: cut plus hyperedge cost.
	if res.Goodness != float64(edge+hyper) {
		return fail("goodness %v, recomputed objective %d", res.Goodness, edge+hyper)
	}
	return solveRef{parts: hashInts(parts), replicas: hashInts(res.Replicas), res: res,
		edgeCut: edge, hyperCut: hyper}, nil
}

// checkReplicas verifies the replica overlay: each entry is -1 or a part
// other than the node's home, and the clone count matches.
func checkReplicas(replicas, parts []int, k, clones int) error {
	if len(replicas) != len(parts) {
		return fmt.Errorf("replica vector has %d entries for %d nodes", len(replicas), len(parts))
	}
	n := 0
	for u, rp := range replicas {
		if rp == -1 {
			continue
		}
		if rp < 0 || rp >= k || rp == parts[u] {
			return fmt.Errorf("node %d has replica part %d (home %d, k %d)", u, rp, parts[u], k)
		}
		n++
	}
	if n != clones {
		return fmt.Errorf("%d replicas in the overlay, %d reported", n, clones)
	}
	return nil
}

// replicatedFeasible applies the constraints under replication: a clone
// uses its weight in its replica part, and bandwidth stays charged on home
// parts (cloning never loosens the Bmax verdict).
func replicatedFeasible(g *graph.Graph, parts, replicas []int, k int, cons metrics.Constraints) bool {
	if cons.Bmax > 0 && metrics.MaxLocalBandwidth(g, parts, k) > cons.Bmax {
		return false
	}
	for p, r := range metrics.ReplicatedPartResources(g, parts, replicas, k) {
		if lim := cons.RmaxFor(p); lim > 0 && r > lim {
			return false
		}
	}
	return true
}

// checkJobResult recomputes a served result against the request's graph
// and constraints.
func checkJobResult(g *graph.Graph, k int, cons metrics.Constraints, jr *server.JobResult) error {
	if err := checkParts(g, jr.Parts, k); err != nil {
		return err
	}
	rep := metrics.Evaluate(g, jr.Parts, k, cons)
	switch {
	case jr.EdgeCut != rep.EdgeCut:
		return fmt.Errorf("served cut %d, recomputed %d", jr.EdgeCut, rep.EdgeCut)
	case jr.MaxLocalBandwidth != rep.MaxLocalBandwidth:
		return fmt.Errorf("served max local bandwidth %d, recomputed %d", jr.MaxLocalBandwidth, rep.MaxLocalBandwidth)
	case jr.MaxResource != rep.MaxResource:
		return fmt.Errorf("served max resource %d, recomputed %d", jr.MaxResource, rep.MaxResource)
	case jr.Feasible != rep.Feasible:
		return fmt.Errorf("served feasible=%v, recomputed %v", jr.Feasible, rep.Feasible)
	case jr.Feasible != (jr.Outcome == server.OutcomeFeasible):
		return fmt.Errorf("served feasible=%v with outcome %q", jr.Feasible, jr.Outcome)
	}
	return nil
}
