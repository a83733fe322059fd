package main

import "strings"

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (with a direction and, end to end, a bound);
// TestSmokeEveryWorkload keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run: what a caller of
// core.Partition or a ppnd client sees. Every workload reports each one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cut", "weight"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run, grouped by the module whose
// public calls the benchmark times. A layer a workload does not use
// reports 0 (see layerRule).
var perLayer = []metricDef{
	{"engine.coarsen_ms", "ms"},
	{"engine.seed_ms", "ms"},
	{"engine.uncoarsen_ms", "ms"},
	{"engine.refine_ms", "ms"},
	{"engine.retry_ms", "ms"},
	{"engine.cycles", "count"},
	{"engine.cycles_discarded_frac", "ratio"},
	{"engine.cycles_pruned_frac", "ratio"},
	{"engine.busy_over_wall", "ratio"},
	{"engine.cycle_fanout_speedup", "ratio"},
	{"engine.trace_overhead_frac", "ratio"},
	{"engine.solve_p99_ms", "ms"},

	{"coarsen.levels", "count"},
	{"coarsen.mean_ratio", "ratio"},
	{"coarsen.contract_ms", "ms"},
	{"match.win_frac.random", "ratio"},
	{"match.win_frac.heavy-edge", "ratio"},
	{"match.win_frac.kmeans", "ratio"},
	{"match.compute_ms.random", "ms"},
	{"match.compute_ms.heavy-edge", "ms"},
	{"match.compute_ms.kmeans", "ms"},
	{"graph.to_csr_ms", "ms"},

	{"refine.serial_level_ms", "ms"},
	{"refine.batch_level_ms", "ms"},
	{"refine.fm_passes", "count"},
	{"refine.fm_moves", "count"},
	{"refine.batch_rounds", "count"},
	{"refine.batch_moves", "count"},
	{"refine.batch_accept_frac", "ratio"},
	{"refine.pipeline_win_frac.0", "ratio"},
	{"refine.pipeline_win_frac.1", "ratio"},
	{"refine.pipeline_win_frac.2", "ratio"},
	{"refine.degraded_levels", "count"},
	{"refine.replicate_ms", "ms"},
	{"refine.replicate_trials", "count"},
	{"refine.replicate_clone_frac", "ratio"},
	{"refine.replicate_ns_per_trial", "ns"},

	{"pstate.new_ms", "ms"},
	{"pstate.move_undo_ns", "ns"},
	{"pstate.move_delta_ns", "ns"},
	{"pstate.score_ns", "ns"},

	{"stream.partition_ms", "ms"},
	{"stream.passes", "count"},
	{"stream.moves_per_pass", "count"},
	{"stream.rejected_passes", "count"},
	{"stream.ms_per_pass", "ms"},

	{"metrics.evaluate_ms", "ms"},
	{"metrics.edge_cut", "weight"},
	{"metrics.hyperedge_cut", "weight"},

	{"pool.runs_per_solve", "count"},
	{"pool.tasks_per_solve", "count"},
	{"arena.cold_checkouts_per_solve", "count"},
	{"core.gc_per_solve", "count"},

	{"server.decode_ms", "ms"},
	{"server.cache_key_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_kb", "KB"},
	{"server.solve_ms.cold", "ms"},
	{"server.solve_ms.impossible", "ms"},
	{"server.latency_p50_ms.hit", "ms"},
	{"server.latency_p50_ms.cold", "ms"},
	{"server.latency_p50_ms.coalesced", "ms"},
	{"server.latency_p50_ms.impossible", "ms"},
	{"server.latency_p95_ms", "ms"},
	{"server.capacity_rps", "1/s"},
	{"server.cache_hit_frac", "ratio"},
	{"server.coalesced_total", "count"},
	{"server.shed_total", "count"},
	{"server.queue_depth_max", "count"},

	{"loadgen.late_p95_ms", "ms"},
	{"loadgen.sent", "count"},
}

// layerRule pins a workload's exercise/bypass design in the traced run:
// every metric matching a zero prefix must read exactly 0 (the workload is
// meant to bypass that layer) and every listed positive metric must read
// above 0 (the workload is meant to exercise it). A rule ending in "." or
// "_" is a prefix: "stream." covers the whole module, "refine.batch_" every
// batch-refinement metric.
type layerRule struct {
	zero     []string
	positive []string
}

// check returns the first metric that breaks the rule, with the reason.
func (lr layerRule) check(m map[string]float64) (string, bool) {
	for _, d := range perLayer {
		for _, z := range lr.zero {
			if matchesRule(d.name, z) && m[d.name] != 0 {
				return d.name + " reports work in a layer this workload bypasses", false
			}
		}
	}
	for _, p := range lr.positive {
		if !(m[p] > 0) {
			return p + " reports no work in a layer this workload exercises", false
		}
	}
	return "", true
}

func matchesRule(name, rule string) bool {
	if strings.HasSuffix(rule, ".") || strings.HasSuffix(rule, "_") {
		return strings.HasPrefix(name, rule)
	}
	return name == rule
}

// zeroBypassed records 0 for every metric of a layer the workload bypasses
// and did not measure; a measured value stays, so check still sees work
// done where none was meant to be.
func (lr layerRule) zeroBypassed(m map[string]float64) {
	for _, d := range perLayer {
		for _, z := range lr.zero {
			if _, set := m[d.name]; !set && matchesRule(d.name, z) {
				m[d.name] = 0
			}
		}
	}
}
