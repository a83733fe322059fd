package engine

import (
	"math"
	"sync/atomic"
)

// PruneMode selects how parallel GP cycles prune against the shared
// incumbent (the best feasible result published so far).
type PruneMode int

const (
	// PruneDeterministic (the default) abandons a cycle only on bounds
	// whose eventual outcome is independent of sibling timing: the
	// pruned cycle's result is provably discarded by the deterministic
	// reduction no matter when the incumbent was published, so results
	// stay bit-identical to a serial run. Concretely: without
	// MinimizeAfterFeasible, a cycle is pruned once a lower-indexed
	// cycle has completed feasible (the reduction stops at the lowest
	// feasible cycle, so every higher cycle is discarded anyway); with
	// MinimizeAfterFeasible, only a perfect incumbent (goodness 0) from
	// a lower cycle prunes, since no later cycle can beat it or win its
	// tie-break.
	PruneDeterministic PruneMode = iota
	// PruneOff never abandons cycles.
	PruneOff
)

// String names the mode.
func (p PruneMode) String() string {
	switch p {
	case PruneDeterministic:
		return "deterministic"
	case PruneOff:
		return "off"
	default:
		return "prune(?)"
	}
}

// Valid reports whether p names a known mode.
func (p PruneMode) Valid() bool {
	switch p {
	case PruneDeterministic, PruneOff:
		return true
	}
	return false
}

// incumbentRec is one published feasible completion.
type incumbentRec struct {
	goodness float64
	cycle    int
}

// incumbent is the shared-state half of cross-cycle pruning: completed
// feasible cycles publish here, running cycles consult it between
// refinement stages. All access is atomic; publication order does not
// affect deterministic-mode outcomes (see PruneDeterministic).
type incumbent struct {
	// feasibleAt is the lowest cycle index that completed feasible, or
	// math.MaxInt64 before any did.
	feasibleAt atomic.Int64
	// best is the best (goodness, then lowest cycle) feasible completion.
	best atomic.Pointer[incumbentRec]
}

func newIncumbent() *incumbent {
	inc := &incumbent{}
	inc.feasibleAt.Store(math.MaxInt64)
	return inc
}

// publish records that cycle completed with a feasible partition of the
// given goodness.
func (inc *incumbent) publish(cycle int, goodness float64) {
	for {
		cur := inc.feasibleAt.Load()
		if int64(cycle) >= cur || inc.feasibleAt.CompareAndSwap(cur, int64(cycle)) {
			break
		}
	}
	for {
		cur := inc.best.Load()
		if cur != nil && (cur.goodness < goodness ||
			(cur.goodness == goodness && cur.cycle <= cycle)) {
			return
		}
		if inc.best.CompareAndSwap(cur, &incumbentRec{goodness: goodness, cycle: cycle}) {
			return
		}
	}
}

// shouldAbandon reports whether the cycle may stop refining now.
func (inc *incumbent) shouldAbandon(cfg *Config, cycle int) bool {
	if inc == nil || cfg.Prune == PruneOff {
		return false
	}
	if !cfg.MinimizeAfterFeasible {
		// The reduction keeps only cycles up to the lowest feasible
		// index; once a lower cycle completed feasible, this cycle's
		// result is discarded regardless of what it produces.
		return inc.feasibleAt.Load() < int64(cycle)
	}
	// A perfect lower-cycle incumbent: goodness is never negative and ties
	// go to the lower cycle, so this cycle cannot win.
	rec := inc.best.Load()
	return rec != nil && rec.cycle < cycle && rec.goodness == 0
}
