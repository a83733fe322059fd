package stream

import (
	"context"
	"reflect"
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// FuzzStreamAssign drives the streaming partitioner with a fuzz-chosen
// graph and penalty parameters and holds it to the full invariant
// contract (checkInvariants): no panic, every vertex assigned exactly
// once, maintained cut/goodness bit-identical to a from-scratch
// recompute, monotone accepted trajectory — the same assignment for 1
// and 4 workers, and the same Parts and Iters as the direct reference
// chooser (pickDirect), whose bandwidth term never takes the early-out
// that the small Bmax values here switch on and off.
func FuzzStreamAssign(f *testing.F) {
	f.Add([]byte{20, 3, 5, 120, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{7, 1, 0, 0})
	f.Add([]byte{40, 5, 9, 255, 250, 240, 3, 0, 0, 1, 17, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%60) + 2
		k := int(data[1]%6) + 1
		// Constraints from one byte: 0 disables, else small bounds the
		// fuzz graphs routinely violate, exercising the penalty terms and
		// the least-loaded fallback.
		var c metrics.Constraints
		if data[2]%3 != 0 {
			c.Bmax = int64(data[2]%40) + 1
		}
		if data[2]%2 != 0 {
			c.Rmax = int64(data[2])%120 + 10
		}
		opts := Options{
			K:             k,
			Constraints:   c,
			Gamma:         1 + float64(data[3]%200)/100,
			MaxIterations: int(data[3]%7) - 1,
			Seed:          int64(data[3]) + 1,
			Order:         Order(data[3] % 2),
			Workers:       1,
		}
		data = data[4:]

		g := graph.New(n)
		// Ring backbone keeps the graph connected, then fuzz-chosen
		// chords, some of weight 0.
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(i%7)+1)
		}
		for i := 0; i+2 < len(data) && i < 4*n; i += 3 {
			u := int(data[i]) % n
			v := int(data[i+1]) % n
			if u != v {
				g.MustAddEdge(graph.Node(u), graph.Node(v), int64(data[i+2]%10))
			}
		}

		res, err := PartitionCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("PartitionCtx rejected valid input %+v: %v", opts, err)
		}
		checkInvariants(t, g, res, c)

		ref := partitionWith(t, g, opts, (*streamer).pickDirect)
		if !reflect.DeepEqual(res.Parts, ref.Parts) {
			t.Fatalf("chooser diverged from the direct reference: %v vs %v", res.Parts, ref.Parts)
		}
		if !reflect.DeepEqual(res.Iters, ref.Iters) {
			t.Fatalf("chooser changed the trajectory:\n%+v\nvs\n%+v", res.Iters, ref.Iters)
		}

		opts.Workers = 4
		res4, err := PartitionCtx(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for u := range res.Parts {
			if res.Parts[u] != res4.Parts[u] {
				t.Fatalf("worker count changed vertex %d: %d vs %d", u, res.Parts[u], res4.Parts[u])
			}
		}
	})
}
