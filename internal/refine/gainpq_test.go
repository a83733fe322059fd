package refine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

func TestGainPQBasicOrdering(t *testing.T) {
	pq := NewGainQueue(new(arena.Workspace), 5)
	pq.Push(0, 10)
	pq.Push(1, 30)
	pq.Push(2, 20)
	if pq.Len() != 3 {
		t.Fatalf("Len = %d", pq.Len())
	}
	u, g := pq.Pop()
	if u != 1 || g != 30 {
		t.Fatalf("Pop = %d/%d, want 1/30", u, g)
	}
	u, _ = pq.Pop()
	if u != 2 {
		t.Fatalf("second Pop = %d, want 2", u)
	}
	u, _ = pq.Pop()
	if u != 0 {
		t.Fatalf("third Pop = %d, want 0", u)
	}
	if pq.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestGainPQTieBreaksByLowerID(t *testing.T) {
	pq := NewGainQueue(new(arena.Workspace), 4)
	pq.Push(3, 7)
	pq.Push(1, 7)
	pq.Push(2, 7)
	u, _ := pq.Pop()
	if u != 1 {
		t.Fatalf("tie Pop = %d, want lowest id 1", u)
	}
}

// peekByPop reads the max-gain entry through Pop and pushes it back,
// leaving the queue's contents unchanged.
func peekByPop(pq *GainQueue) (graph.Node, int64) {
	u, g := pq.Pop()
	pq.Push(u, g)
	return u, g
}

// drainPQ pops every entry, highest gain (then lowest id) first.
func drainPQ(pq *GainQueue) [][2]int64 {
	var out [][2]int64
	for pq.Len() > 0 {
		u, g := pq.Pop()
		out = append(out, [2]int64{int64(u), g})
	}
	return out
}

func TestGainPQUpdateAndAdjust(t *testing.T) {
	pq := NewGainQueue(new(arena.Workspace), 4)
	pq.Push(0, 1)
	pq.Push(1, 2)
	pq.Update(0, 100)
	if u, g := peekByPop(&pq); u != 0 || g != 100 {
		t.Fatalf("after Update top = %d/%d", u, g)
	}
	pq.Adjust(1, 200) // 2 + 200 = 202
	if u, g := peekByPop(&pq); u != 1 || g != 202 {
		t.Fatalf("after Adjust top = %d/%d", u, g)
	}
	pq.Adjust(3, 50) // absent: no-op
	if pq.Len() != 2 {
		t.Fatal("Adjust inserted absent node")
	}
	pq.Update(3, 5) // absent: inserts
	if pq.Len() != 3 {
		t.Fatal("Update on absent node should insert")
	}
	pq.Push(1, 1) // present: updates key downward
	if pq.Len() != 3 {
		t.Fatal("Push on present node should update, not insert")
	}
	want := [][2]int64{{0, 100}, {3, 5}, {1, 1}}
	if got := drainPQ(&pq); !reflect.DeepEqual(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
}

func TestGainPQRemove(t *testing.T) {
	pq := NewGainQueue(new(arena.Workspace), 5)
	for i := 0; i < 5; i++ {
		pq.Push(graph.Node(i), int64(i))
	}
	pq.Remove(4) // max
	if u, _ := peekByPop(&pq); u != 3 {
		t.Fatalf("after removing max, top = %d, want 3", u)
	}
	pq.Remove(0)
	pq.Remove(0) // double remove is a no-op
	if pq.Len() != 3 {
		t.Fatalf("Len = %d, want 3", pq.Len())
	}
	want := [][2]int64{{3, 3}, {2, 2}, {1, 1}}
	if got := drainPQ(&pq); !reflect.DeepEqual(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
}

func TestGainPQRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		pq := NewGainQueue(new(arena.Workspace), n)
		gains := make([]int64, n)
		for i := 0; i < n; i++ {
			gains[i] = int64(rng.Intn(1000) - 500)
			pq.Push(graph.Node(i), gains[i])
		}
		// Random updates.
		for j := 0; j < n/2; j++ {
			u := rng.Intn(n)
			gains[u] = int64(rng.Intn(1000) - 500)
			pq.Update(graph.Node(u), gains[u])
		}
		// Drain and compare with sorted order.
		type kv struct {
			id   int
			gain int64
		}
		want := make([]kv, n)
		for i := range want {
			want[i] = kv{i, gains[i]}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].gain != want[b].gain {
				return want[a].gain > want[b].gain
			}
			return want[a].id < want[b].id
		})
		for i := 0; i < n; i++ {
			u, g := pq.Pop()
			if int(u) != want[i].id || g != want[i].gain {
				t.Fatalf("trial %d drain[%d] = %d/%d, want %d/%d",
					trial, i, u, g, want[i].id, want[i].gain)
			}
		}
	}
}
