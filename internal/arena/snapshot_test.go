//go:build !race

// Under the race detector sync.Pool drops a random share of its Puts, so
// a released snapshot is not certain to come back.

package arena

import (
	"testing"
	"unsafe"

	"ppnpart/internal/graph"
)

func TestSnapshotReusesReleasedStorage(t *testing.T) {
	g := graph.New(50)
	for u := 1; u < 50; u++ {
		g.MustAddEdge(graph.Node(u-1), graph.Node(u), int64(u))
	}
	g.MustAddHyperEdge([]graph.Node{0, 10, 20}, 3)
	// A Put and the next Get meet in the current P's private slot; the
	// goroutine may move to another P in between, so allow a retry.
	for try := 0; try < 3; try++ {
		c := Snapshot(g)
		xadj, adj, hpins := unsafe.SliceData(c.XAdj), unsafe.SliceData(c.Adj), unsafe.SliceData(c.HPins)
		ReleaseSnapshot(c)
		d := Snapshot(g)
		reused := d == c && unsafe.SliceData(d.XAdj) == xadj &&
			unsafe.SliceData(d.Adj) == adj && unsafe.SliceData(d.HPins) == hpins
		ReleaseSnapshot(d)
		if reused {
			return
		}
	}
	t.Fatal("a second snapshot of the same graph did not reuse the released one's storage")
}
