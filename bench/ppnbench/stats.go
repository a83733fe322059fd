package main

import (
	"hash/fnv"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported; with fewer, the "tail" describes one or two operations.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and whether it may be reported as a tail: false when xs is empty or
// fewer than minBeyond samples lie above the rank.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the nearest-rank 50th percentile, reported at any sample count
// (0 for no samples).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// tail is percentile reported as 0 when too few samples lie beyond it.
func tail(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hashInts fingerprints an assignment so repeated solves can be compared
// without keeping every partition.
func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		v := uint64(x)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
