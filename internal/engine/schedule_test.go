package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
)

// Tests for the cycle schedule: cycle 0 runs alone on the whole pool, and
// only an infeasible cycle 0 (or MinimizeAfterFeasible) widens the search
// to batches of Config.Parallelism. The schedule must never change a
// result bit.

// TestOutcomeInvariantAcrossWidths solves the same instance at cycle
// widths 1, 2, 3 and 8 (each on a pool of that width) and demands the
// width-1 outcome every time, in three schedules: feasible at cycle 0,
// feasible only after five forced-infeasible cycles, and
// MinimizeAfterFeasible over the whole budget.
func TestOutcomeInvariantAcrossWidths(t *testing.T) {
	g := testGraph(t, 300, 900, 11)
	const k = 4
	cons := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*k) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / k,
	}
	const forced = 5
	for _, sc := range []struct {
		name     string
		minimize bool
		forced   int
	}{
		{"feasible-at-cycle-0", false, 0},
		{"retry-driven", false, forced},
		{"minimize-after-feasible", true, 0},
	} {
		for _, prune := range []PruneMode{PruneDeterministic, PruneOff} {
			t.Run(sc.name+"/"+prune.String(), func(t *testing.T) {
				run := func(width int) (*Outcome, TraceData) {
					p := pool.New(width)
					defer p.Close()
					s := New(Config{K: k, Constraints: cons, Seed: 7, MaxCycles: 8,
						MinimizeAfterFeasible: sc.minimize, Parallelism: width, Pool: p, Prune: prune})
					if sc.forced > 0 {
						s.SetStage(degenerateSeed{inner: s.Stage(PhaseInitialPartition), until: sc.forced})
						s.SetStage(gatedRefine{inner: s.Stage(PhaseRefine), until: sc.forced})
					}
					tr := &Trace{OmitTiming: true}
					out := s.Solve(context.Background(), g, tr)
					return out, tr.Data()
				}
				ref, refTrace := run(1)
				if !ref.Feasible {
					t.Fatalf("width 1: infeasible outcome %+v", ref)
				}
				switch {
				case sc.minimize:
					if ref.CyclesRun != 8 {
						t.Fatalf("width 1: ran %d cycles, want the whole budget of 8", ref.CyclesRun)
					}
				case ref.BestCycle != sc.forced || ref.CyclesRun != sc.forced+1:
					t.Fatalf("width 1: best cycle %d after %d cycles, want %d after %d",
						ref.BestCycle, ref.CyclesRun, sc.forced, sc.forced+1)
				}
				for _, width := range []int{2, 3, 8} {
					out, td := run(width)
					if !reflect.DeepEqual(out.Parts, ref.Parts) || out.Feasible != ref.Feasible ||
						out.Goodness != ref.Goodness || out.CyclesRun != ref.CyclesRun ||
						out.BestCycle != ref.BestCycle {
						t.Fatalf("width %d: outcome (feasible %v, goodness %v, cycles %d, best %d) "+
							"differs from width 1 (%v, %v, %d, %d)", width,
							out.Feasible, out.Goodness, out.CyclesRun, out.BestCycle,
							ref.Feasible, ref.Goodness, ref.CyclesRun, ref.BestCycle)
					}
					if sc.forced == 0 && !sc.minimize {
						if len(td.Cycles) != 1 || td.Cycles[0].Discarded {
							t.Fatalf("width %d: feasible cycle 0 left %d cycle records, want cycle 0 alone",
								width, len(td.Cycles))
						}
					}
					if got, want := keptCycles(t, td), keptCycles(t, refTrace); got != want {
						t.Fatalf("width %d: counted cycle records differ from width 1:\n%s\nvs\n%s", width, got, want)
					}
				}
			})
		}
	}
}

// keptCycles encodes the trace's non-discarded cycle records, the part of
// an OmitTiming trace that must not depend on the cycle width.
func keptCycles(t *testing.T, td TraceData) string {
	t.Helper()
	var b strings.Builder
	for _, ct := range td.Cycles {
		if ct.Discarded {
			continue
		}
		enc, err := json.Marshal(ct)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(enc)
		b.WriteByte('\n')
	}
	return b.String()
}

// concurrencyProbe wraps the coarsen stage and counts the cycles inside
// it at once: first is the most seen while cycle 0 was inside, second the
// most seen by a later cycle on arrival. Each cycle waits there until
// `gather` cycles in all have arrived or its wait runs out: cycle 0 waits
// `linger` (so a sibling scheduled beside it would be seen), later cycles
// up to 10 s (so a full batch gathers even on a loaded machine). Arrivals
// only count up, so no cycle leaves before the last of a full batch is in,
// and the last one's arrival sees the whole batch.
type concurrencyProbe struct {
	inner           Stage
	gather          int32
	linger          time.Duration
	active, arrived *atomic.Int32
	first, second   *atomic.Int32
	cycle0In        *atomic.Bool
}

func (p concurrencyProbe) Phase() Phase { return PhaseCoarsen }

func (p concurrencyProbe) Run(cy *Cycle) error {
	record := func(seen *atomic.Int32, n int32) {
		for m := seen.Load(); n > m && !seen.CompareAndSwap(m, n); m = seen.Load() {
		}
	}
	wait := 10 * time.Second
	if cy.Index == 0 {
		wait = p.linger
		// Set before entering: a sibling arriving later sees the flag; one
		// that arrived earlier is still inside and counted below.
		p.cycle0In.Store(true)
		record(p.first, p.active.Add(1))
	} else {
		n := p.active.Add(1)
		record(p.second, n)
		if p.cycle0In.Load() {
			record(p.first, n)
		}
	}
	p.arrived.Add(1)
	for deadline := time.Now().Add(wait); p.arrived.Load() < p.gather && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if cy.Index == 0 {
		p.cycle0In.Store(false)
	}
	p.active.Add(-1)
	return p.inner.Run(cy)
}

// TestCycleScheduleWidensAfterCycle0 pins the schedule itself, not only
// its results: cycle 0 runs with no sibling, and once it ends infeasible
// the next batch runs Parallelism cycles at once on a pool that wide.
// Under MinimizeAfterFeasible cycle 0 already shares a full-width batch.
func TestCycleScheduleWidensAfterCycle0(t *testing.T) {
	g := testGraph(t, 200, 600, 21)
	const k, width = 4, 4
	cons := metrics.Constraints{Rmax: g.TotalNodeWeight()*115/(100*k) + g.MaxNodeWeight()}
	for _, minimize := range []bool{false, true} {
		t.Run(fmt.Sprintf("minimize=%v", minimize), func(t *testing.T) {
			// One batch after cycle 0, or one in all under
			// MinimizeAfterFeasible: every batch is full, so no cycle
			// waits out its 10 s for siblings that never come.
			budget := 1 + width
			if minimize {
				budget = width
			}
			p := pool.New(width)
			defer p.Close()
			s := New(Config{K: k, Constraints: cons, Seed: 3, MaxCycles: budget,
				MinimizeAfterFeasible: minimize, Parallelism: width, Pool: p, Prune: PruneOff})
			var active, arrived, first, second atomic.Int32
			var cycle0In atomic.Bool
			probe := concurrencyProbe{inner: s.Stage(PhaseCoarsen), gather: int32(budget),
				linger: 50 * time.Millisecond, active: &active, arrived: &arrived,
				first: &first, second: &second, cycle0In: &cycle0In}
			if minimize {
				probe.linger = 10 * time.Second
			}
			s.SetStage(probe)
			s.SetStage(degenerateSeed{inner: s.Stage(PhaseInitialPartition), until: 1})
			s.SetStage(gatedRefine{inner: s.Stage(PhaseRefine), until: 1})

			out := s.Solve(context.Background(), g, nil)
			if !out.Feasible || out.BestCycle < 1 {
				t.Fatalf("outcome %+v, want a feasible cycle after the forced cycle 0", out)
			}
			wantFirst := int32(1)
			if minimize {
				wantFirst = width
			}
			if got := first.Load(); got != wantFirst {
				t.Fatalf("cycle 0 ran beside %d cycles in all, want %d", got, wantFirst)
			}
			if got := second.Load(); !minimize && got != width {
				t.Fatalf("after cycle 0 at most %d cycles ran at once, want Parallelism = %d", got, width)
			}
		})
	}
}
