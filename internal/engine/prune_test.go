package engine

import (
	"math"
	"testing"
)

func TestPruneModeStringAndValid(t *testing.T) {
	cases := []struct {
		mode  PruneMode
		name  string
		valid bool
	}{
		{PruneDeterministic, "deterministic", true},
		{PruneOff, "off", true},
		{PruneMode(2), "prune(?)", false}, // the retired aggressive mode
		{PruneMode(42), "prune(?)", false},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.name {
			t.Errorf("PruneMode(%d).String() = %q, want %q", int(c.mode), got, c.name)
		}
		if got := c.mode.Valid(); got != c.valid {
			t.Errorf("PruneMode(%d).Valid() = %v, want %v", int(c.mode), got, c.valid)
		}
	}
}

func TestIncumbentPublishKeepsMinFeasibleAndBest(t *testing.T) {
	inc := newIncumbent()
	if got := inc.feasibleAt.Load(); got != math.MaxInt64 {
		t.Fatalf("fresh incumbent feasibleAt = %d, want MaxInt64", got)
	}
	inc.publish(5, 40)
	inc.publish(3, 70)
	inc.publish(7, 10)
	if got := inc.feasibleAt.Load(); got != 3 {
		t.Fatalf("feasibleAt = %d, want 3", got)
	}
	rec := inc.best.Load()
	if rec == nil || rec.goodness != 10 || rec.cycle != 7 {
		t.Fatalf("best = %+v, want goodness 10 at cycle 7", rec)
	}
	// Equal goodness from a lower cycle wins the tie.
	inc.publish(2, 10)
	rec = inc.best.Load()
	if rec.cycle != 2 {
		t.Fatalf("tie-break kept cycle %d, want 2", rec.cycle)
	}
	// Worse goodness never replaces the best.
	inc.publish(0, 99)
	if rec := inc.best.Load(); rec.goodness != 10 {
		t.Fatalf("worse publish overwrote best: %+v", rec)
	}
}

func TestShouldAbandonPerMode(t *testing.T) {
	firstFeasible := func(cycle int, goodness float64) *incumbent {
		inc := newIncumbent()
		inc.publish(cycle, goodness)
		return inc
	}
	det := &Config{Prune: PruneDeterministic}
	detMin := &Config{Prune: PruneDeterministic, MinimizeAfterFeasible: true}
	off := &Config{Prune: PruneOff}

	cases := []struct {
		name  string
		inc   *incumbent
		cfg   *Config
		cycle int
		want  bool
	}{
		{"off never", firstFeasible(0, 5), off, 9, false},
		{"no incumbent", newIncumbent(), det, 9, false},
		{"stop-at-first: higher cycle pruned", firstFeasible(2, 5), det, 3, true},
		{"stop-at-first: same cycle kept", firstFeasible(2, 5), det, 2, false},
		{"stop-at-first: lower cycle kept", firstFeasible(2, 5), det, 1, false},
		{"minimize: imperfect incumbent keeps cycle", firstFeasible(0, 5), detMin, 3, false},
		{"minimize: perfect incumbent prunes", firstFeasible(0, 0), detMin, 3, true},
		{"minimize: perfect incumbent from higher cycle kept", firstFeasible(5, 0), detMin, 3, false},
	}
	for _, c := range cases {
		if got := c.inc.shouldAbandon(c.cfg, c.cycle); got != c.want {
			t.Errorf("%s: shouldAbandon = %v, want %v", c.name, got, c.want)
		}
	}
	var nilInc *incumbent
	if nilInc.shouldAbandon(det, 5) {
		t.Error("nil incumbent must never abandon")
	}
}
