package pstate

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

// Row is one node's connectivity row, the input of every move choice:
// W[p] is the node's total edge weight into part p, and Parts lists each
// part of positive weight exactly once, in the order the node's edges
// first reach it. W is zero outside Parts, so clearing the row costs
// O(|Parts|), not O(K). The State keeps one (State.Row); a caller that
// gathers against an assignment of its own, such as the streamer, draws
// one from a workspace with NewRow.
type Row struct {
	W     []int64
	Parts []int
}

// NewRow draws an empty row over k parts from ws; Release returns it.
func NewRow(ws *arena.Workspace, k int) Row {
	return Row{W: ws.Int64s.Get(k), Parts: ws.Ints.Cap(k + 1)}
}

// Release returns the row's storage to ws.
func (r *Row) Release(ws *arena.Workspace) {
	ws.Int64s.Put(r.W)
	ws.Ints.Put(r.Parts)
}

// reset empties the row and sizes it to k parts, reusing its storage.
func (r *Row) reset(k int) {
	r.W = grow64(r.W, k)
	if cap(r.Parts) <= k {
		r.Parts = make([]int, 0, k+1)
	}
	r.Parts = r.Parts[:0]
}

// add credits weight w > 0 to part p.
func (r *Row) add(p int, w int64) {
	if r.W[p] == 0 {
		r.Parts = append(r.Parts, p)
	}
	r.W[p] += w
}

// clear empties the row in O(|Parts|).
func (r *Row) clear() {
	for _, p := range r.Parts {
		r.W[p] = 0
	}
	r.Parts = r.Parts[:0]
}

// Gather refills r with node u's row under the assignment parts. A
// neighbour in part -1 (not yet assigned) and a zero-weight edge add no
// weight and are skipped, which keeps each part listed once. r must come
// from NewRow or State.Row, which leave Parts room for K+1 entries.
// O(deg(u)).
func (r *Row) Gather(c *graph.CSR, parts []int, u graph.Node) {
	r.clear()
	// Every edge writes its part into the next free slot, and the slot is
	// kept only when the part is new: a select, not a branch on the
	// unpredictable first touch. cap(Parts) > K leaves room for the write.
	list, n := r.Parts[:cap(r.Parts)], 0
	adj, wts := c.Row(u)
	for i, v := range adj {
		p, w := parts[v], wts[i]
		if p < 0 || w == 0 {
			continue
		}
		list[n] = p
		if r.W[p] == 0 {
			n++
		}
		r.W[p] += w
	}
	r.Parts = list[:n]
}

// BandwidthDelta is the change of the total pairwise bandwidth excess
// over bmax of the K×K row-major matrix bw if the node whose row r is
// moves from part `from` (-1: not yet assigned) to part `to`. It is 0 when
// bmax <= 0 disables the bound. O(|Parts|).
func (r *Row) BandwidthDelta(bw []int64, bmax int64, from, to int) int64 {
	if bmax <= 0 || from == to {
		return 0
	}
	k := len(r.W)
	var d int64
	for _, p := range r.Parts {
		if p == from || p == to {
			continue
		}
		if from >= 0 {
			fp := bw[from*k+p]
			d += over(fp-r.W[p], bmax) - over(fp, bmax)
		}
		tp := bw[to*k+p]
		d += over(tp+r.W[p], bmax) - over(tp, bmax)
	}
	if from >= 0 {
		ft := bw[from*k+to]
		d += over(ft-r.W[to]+r.W[from], bmax) - over(ft, bmax)
	}
	return d
}

// over is the excess of v above lim, 0 when lim <= 0 disables the bound.
func over(v, lim int64) int64 {
	if lim > 0 && v > lim {
		return v - lim
	}
	return 0
}
