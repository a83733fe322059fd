package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec is one BENCHMARK.json metric: its direction and, for an
// end-to-end metric, the share of the base median it may worsen by.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func (m metricSpec) lowerIsBetter() bool { return m.Better == "lower" }

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(data, n=4) does (the "exclusive" method), which is
// how the benchmark's spread is defined. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// summary is one side's runs of one (workload, metric) pair.
type summary struct {
	runs          []float64
	q1, med, q3   float64
	spread        float64 // (q3-q1)/|median|; +Inf when it cannot be told
	failed, tried int
}

func summarize(runs []float64) summary {
	s := summary{runs: runs, spread: math.Inf(1)}
	switch len(runs) {
	case 0:
		return s
	case 1:
		s.q1, s.med, s.q3 = runs[0], runs[0], runs[0]
		return s
	}
	s.q1, s.med, s.q3 = quartiles(runs)
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	} else if s.q3 == s.q1 {
		s.spread = 0
	}
	return s
}

// Verdicts for one (workload, metric) pair.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictBetter     = "better (every run)"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-"
)

// minGainPairs and gainWinShare are the gain rule: at least ten paired runs,
// of which the new side wins nine tenths (ties count for neither).
const (
	minGainPairs = 10
	gainWinShare = 0.9
)

// worseBy is how much worse b's median reads than a's, as a share of a's
// median; negative when b is better.
func worseBy(spec metricSpec, a, b float64) float64 {
	d := b - a
	if !spec.lowerIsBetter() {
		d = -d
	}
	if a == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(a)
}

func better(spec metricSpec, x, y float64) bool {
	if spec.lowerIsBetter() {
		return x < y
	}
	return x > y
}

// everyRunBetter reports whether every new run reads better than every
// base run.
func everyRunBetter(spec metricSpec, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, n := range cur {
		for _, b := range base {
			if !better(spec, n, b) {
				return false
			}
		}
	}
	return true
}

// verdict applies the benchmark's rules to one (workload, metric) pair:
//   - a spread (either side) wider than the bound leaves the pair
//     unresolved, unless every new run beats every base run;
//   - a median worse than the base by more than the bound is a regression
//     (with a bound of 0, by any amount);
//   - a gain needs at least minGainPairs paired runs (pair i is base run i
//     with new run i), new wins in gainWinShare of them, and a median
//     difference larger than the base's quartile distance.
//
// Per-layer metrics have no bound and get no verdict.
func verdict(spec metricSpec, base, cur summary) string {
	if spec.Bound == nil {
		return verdictInfo
	}
	bound := *spec.Bound
	if base.spread > bound || cur.spread > bound {
		if everyRunBetter(spec, base.runs, cur.runs) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if worseBy(spec, base.med, cur.med) > bound {
		return verdictRegression
	}
	pairs := min(len(base.runs), len(cur.runs))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(spec, cur.runs[i], base.runs[i]) {
			wins++
		}
	}
	if pairs >= minGainPairs && float64(wins) >= gainWinShare*float64(pairs) &&
		better(spec, cur.med, base.med) && math.Abs(cur.med-base.med) > base.q3-base.q1 {
		return verdictGain
	}
	return verdictSame
}

// failedVerdict compares the share of failed operations: it may not rise.
func failedVerdict(base, cur summary) string {
	bf, cf := ratioOf(base.failed, base.tried), ratioOf(cur.failed, cur.tried)
	if cf > bf {
		return fmt.Sprintf("%s (failed %d/%d, base %d/%d)", verdictRegression, cur.failed, cur.tried, base.failed, base.tried)
	}
	return verdictSame
}

func ratioOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
