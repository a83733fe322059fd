package refine

import (
	"math/bits"
	"sort"
)

// gainBuckets is the batch sweep's incremental candidate ranking. The
// GainQueue note explains why classic FM bucket arrays don't fit
// arbitrary int64 bandwidth gains directly — one bucket per gain value
// needs a small integer domain. This structure quantizes instead: bucket
// b holds the candidates whose gain g has bits.Len64(g) == b, i.e.
// g in [2^(b-1), 2^b). Batch candidates always have strictly positive
// gain, so b ranges over 1..64 and the bucket gain ranges are disjoint
// and ordered. Scanning buckets high to low and ordering each bucket by
// (gain desc, node asc) therefore visits candidates in exactly the
// global (gain desc, node asc) order the previous per-round sort.Slice
// produced — the equivalence test in gainbuckets_test.go pins this,
// including ties.
//
// The win over re-sorting is incrementality: between rounds only the
// dirty set (the moved nodes and their neighborhoods) is re-bucketed,
// and only buckets that actually changed are lazily re-sorted — and only
// when the selection scan reaches them. Steady-state rounds touch a few
// small buckets instead of sorting the full candidate list.
type gainBuckets struct {
	lists [65][]int // lists[b]: candidate nodes with bits.Len64(gain) == b
	dirty [65]bool  // bucket order invalidated since its last sort
	bkt   []int8    // node -> bucket id, 0 when absent
	pos   []int32   // node -> index in lists[bkt[node]]
	g     []int64   // node -> gain at insertion (ordering key + change check)
	count int       // live candidates across all buckets
	hi    int       // upper bound on the highest non-empty bucket
}

// reset prepares the structure for a pass over n nodes, clearing any
// state left by a previous pass.
func (gb *gainBuckets) reset(n int) {
	if cap(gb.bkt) < n {
		gb.bkt = make([]int8, n)
		gb.pos = make([]int32, n)
		gb.g = make([]int64, n)
	}
	gb.bkt = gb.bkt[:n]
	gb.pos = gb.pos[:n]
	gb.g = gb.g[:n]
	for i := range gb.bkt {
		gb.bkt[i] = 0
	}
	for b := range gb.lists {
		gb.lists[b] = gb.lists[b][:0]
		gb.dirty[b] = false
	}
	gb.count = 0
	gb.hi = 0
}

// set inserts node u with the given strictly positive gain, or updates
// it if already present.
func (gb *gainBuckets) set(u int, gain int64) {
	b := int(bits.Len64(uint64(gain)))
	old := int(gb.bkt[u])
	if old == b {
		if gb.g[u] != gain {
			gb.g[u] = gain
			gb.dirty[b] = true
		}
		return
	}
	if old != 0 {
		gb.removeFrom(u, old)
	} else {
		gb.count++
	}
	gb.g[u] = gain
	gb.bkt[u] = int8(b)
	gb.pos[u] = int32(len(gb.lists[b]))
	gb.lists[b] = append(gb.lists[b], u)
	gb.dirty[b] = true
	if b > gb.hi {
		gb.hi = b
	}
}

// remove deletes node u if present.
func (gb *gainBuckets) remove(u int) {
	b := int(gb.bkt[u])
	if b == 0 {
		return
	}
	gb.removeFrom(u, b)
	gb.bkt[u] = 0
	gb.count--
}

// removeFrom swap-deletes u from bucket b's list.
func (gb *gainBuckets) removeFrom(u, b int) {
	lst := gb.lists[b]
	i := int(gb.pos[u])
	last := len(lst) - 1
	if i != last {
		lst[i] = lst[last]
		gb.pos[lst[i]] = int32(i)
		// The swapped-in tail breaks the sorted order.
		gb.dirty[b] = true
	}
	gb.lists[b] = lst[:last]
}

// scan visits every live candidate in (gain desc, node asc) order.
// Dirty buckets are sorted on first touch; the structure must not be
// mutated during the scan.
func (gb *gainBuckets) scan(visit func(u int)) {
	for b := gb.hi; b >= 1; b-- {
		lst := gb.lists[b]
		if len(lst) == 0 {
			if b == gb.hi {
				gb.hi--
			}
			continue
		}
		if gb.dirty[b] {
			sort.Slice(lst, func(i, j int) bool {
				if gb.g[lst[i]] != gb.g[lst[j]] {
					return gb.g[lst[i]] > gb.g[lst[j]]
				}
				return lst[i] < lst[j]
			})
			for i, u := range lst {
				gb.pos[u] = int32(i)
			}
			gb.dirty[b] = false
		}
		for _, u := range lst {
			visit(u)
		}
	}
}
