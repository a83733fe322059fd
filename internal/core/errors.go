package core

import (
	"errors"
	"fmt"
	"math"

	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
)

// ErrInvalidOptions is the base of every option-validation failure; all
// the specific sentinels below wrap it, so callers can match either the
// family (errors.Is(err, ErrInvalidOptions)) or the precise cause.
var ErrInvalidOptions = errors.New("core: invalid options")

var (
	// ErrNonPositiveK rejects K <= 0.
	ErrNonPositiveK = fmt.Errorf("%w: K must be positive", ErrInvalidOptions)
	// ErrTooFewNodes rejects graphs with fewer nodes than parts.
	ErrTooFewNodes = fmt.Errorf("%w: fewer nodes than parts", ErrInvalidOptions)
	// ErrNegativeBmax rejects a negative bandwidth bound (zero disables it).
	ErrNegativeBmax = fmt.Errorf("%w: negative Bmax", ErrInvalidOptions)
	// ErrNegativeRmax rejects a negative resource bound (zero disables it).
	ErrNegativeRmax = fmt.Errorf("%w: negative Rmax", ErrInvalidOptions)
	// ErrNegativeRestarts rejects Restarts < 0 (zero selects the default).
	ErrNegativeRestarts = fmt.Errorf("%w: negative Restarts", ErrInvalidOptions)
	// ErrUnknownHeuristic rejects a MatchHeuristics entry outside the
	// known set; it also wraps match.ErrUnknownHeuristic.
	ErrUnknownHeuristic = fmt.Errorf("%w: %w", ErrInvalidOptions, match.ErrUnknownHeuristic)
	// ErrUnknownPruneMode rejects a Prune value outside the known modes.
	ErrUnknownPruneMode = fmt.Errorf("%w: unknown prune mode", ErrInvalidOptions)
	// ErrUnknownRefineMode rejects a Refine value outside the known modes.
	ErrUnknownRefineMode = fmt.Errorf("%w: unknown refine mode", ErrInvalidOptions)
	// ErrHeuristicsWithNLevel rejects combining MatchHeuristics with
	// NLevelCoarsening: n-level coarsening always contracts a single
	// heaviest edge, so a heuristic restriction would be silently ignored.
	ErrHeuristicsWithNLevel = fmt.Errorf("%w: MatchHeuristics has no effect with NLevelCoarsening", ErrInvalidOptions)
	// ErrUnknownAlgorithm rejects an Algo value outside the known set.
	ErrUnknownAlgorithm = fmt.Errorf("%w: unknown algorithm", ErrInvalidOptions)
	// ErrBadStreamGamma rejects a StreamGamma below 1 or not finite (zero
	// selects the default 1.5; the penalty must stay convex).
	ErrBadStreamGamma = fmt.Errorf("%w: StreamGamma must be finite and >= 1", ErrInvalidOptions)
	// ErrBadRmaxPart rejects a per-part resource-bound table with a
	// negative entry or more entries than parts (a non-positive entry
	// falls back to the scalar Rmax, so short tables are fine).
	ErrBadRmaxPart = fmt.Errorf("%w: invalid RmaxPart", ErrInvalidOptions)
	// ErrBadPartCaps rejects a per-part vector-capacity table with a
	// negative entry or more rows than parts.
	ErrBadPartCaps = fmt.Errorf("%w: invalid VectorConstraints.PartCaps", ErrInvalidOptions)
	// ErrNegativeMaxClones rejects MaxClones < 0 (zero selects the
	// default replication budget).
	ErrNegativeMaxClones = fmt.Errorf("%w: negative MaxClones", ErrInvalidOptions)
)

// Validate checks opts against g up front, returning a typed, wrapped
// error for the first problem found. Partition and PartitionCtx call it
// before doing any work, so an invalid configuration fails fast instead
// of panicking deep inside a coarsening cycle.
func (o Options) Validate(g *graph.Graph) error {
	if o.K <= 0 {
		return fmt.Errorf("%w (K = %d)", ErrNonPositiveK, o.K)
	}
	if g.NumNodes() < o.K {
		return fmt.Errorf("%w (%d nodes, K = %d)", ErrTooFewNodes, g.NumNodes(), o.K)
	}
	if o.Constraints.Bmax < 0 {
		return fmt.Errorf("%w (Bmax = %d)", ErrNegativeBmax, o.Constraints.Bmax)
	}
	if o.Constraints.Rmax < 0 {
		return fmt.Errorf("%w (Rmax = %d)", ErrNegativeRmax, o.Constraints.Rmax)
	}
	if o.Restarts < 0 {
		return fmt.Errorf("%w (Restarts = %d)", ErrNegativeRestarts, o.Restarts)
	}
	for _, h := range o.MatchHeuristics {
		if !h.Valid() {
			return fmt.Errorf("%w (heuristic %d)", ErrUnknownHeuristic, int(h))
		}
	}
	if o.NLevelCoarsening && len(o.MatchHeuristics) > 0 {
		return ErrHeuristicsWithNLevel
	}
	if !o.Prune.Valid() {
		return fmt.Errorf("%w (prune mode %d)", ErrUnknownPruneMode, int(o.Prune))
	}
	if !o.Refine.Valid() {
		return fmt.Errorf("%w (refine mode %d)", ErrUnknownRefineMode, int(o.Refine))
	}
	if !o.Algo.Valid() {
		return fmt.Errorf("%w (algorithm %d)", ErrUnknownAlgorithm, int(o.Algo))
	}
	if sg := o.StreamGamma; sg != 0 && (math.IsNaN(sg) || math.IsInf(sg, 0) || sg < 1) {
		return fmt.Errorf("%w (StreamGamma = %v)", ErrBadStreamGamma, o.StreamGamma)
	}
	if len(o.Constraints.RmaxPart) > o.K {
		return fmt.Errorf("%w (%d entries, K = %d)", ErrBadRmaxPart, len(o.Constraints.RmaxPart), o.K)
	}
	for p, r := range o.Constraints.RmaxPart {
		if r < 0 {
			return fmt.Errorf("%w (part %d: %d)", ErrBadRmaxPart, p, r)
		}
	}
	if len(o.VectorConstraints.PartCaps) > o.K {
		return fmt.Errorf("%w (%d rows, K = %d)", ErrBadPartCaps, len(o.VectorConstraints.PartCaps), o.K)
	}
	for p, row := range o.VectorConstraints.PartCaps {
		for d, c := range row {
			if c < 0 {
				return fmt.Errorf("%w (part %d kind %d: %d)", ErrBadPartCaps, p, d, c)
			}
		}
	}
	if o.MaxClones < 0 {
		return fmt.Errorf("%w (MaxClones = %d)", ErrNegativeMaxClones, o.MaxClones)
	}
	if len(o.VectorResources) > 0 {
		if err := metrics.ValidateVectors(o.VectorResources, g.NumNodes()); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	return nil
}
