package arena

import (
	"testing"

	"ppnpart/internal/graph"
)

func TestPoolGetZeroesReusedMemory(t *testing.T) {
	var p Pool[int]
	s := p.Get(10)
	for i := range s {
		s[i] = i + 1
	}
	p.Put(s)
	r := p.Get(10)
	if &r[0] != &s[0] {
		t.Fatalf("expected buffer reuse, got a fresh allocation")
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %d", i, v)
		}
	}
}

func TestPoolCapPicksSmallestSufficient(t *testing.T) {
	var p Pool[int64]
	big := p.Get(100)
	small := p.Get(10)
	p.Put(big)
	p.Put(small)
	got := p.Cap(5)
	if cap(got) != cap(small) {
		t.Fatalf("Cap(5) picked cap %d, want the smaller buffer cap %d", cap(got), cap(small))
	}
	if len(got) != 0 {
		t.Fatalf("Cap returned len %d, want 0", len(got))
	}
}

func TestPoolGrowsGeometrically(t *testing.T) {
	var p Pool[float64]
	s := p.Get(33)
	if cap(s) != 64 {
		t.Fatalf("Get(33) cap = %d, want power-of-two 64", cap(s))
	}
	if len(s) != 33 {
		t.Fatalf("Get(33) len = %d", len(s))
	}
}

func TestPoolPutNilNoop(t *testing.T) {
	var p Pool[bool]
	p.Put(nil)
	if len(p.free) != 0 {
		t.Fatalf("Put(nil) added to free list")
	}
}

func TestChildPersistentAndDistinct(t *testing.T) {
	ws := &Workspace{}
	c0, c1 := ws.Child(0), ws.Child(1)
	if c0 == c1 || c0 == ws {
		t.Fatal("children must be distinct workspaces")
	}
	buf := c0.Ints.Get(4)
	c0.Ints.Put(buf)
	got := ws.Child(0).Ints.Get(4)
	if &got[0] != &buf[0] {
		t.Fatal("child scratch not persistent across Child calls")
	}
}

func TestExtRoundTrip(t *testing.T) {
	ws := &Workspace{}
	type key struct{}
	if ws.Ext(key{}) != nil {
		t.Fatal("Ext on empty workspace should be nil")
	}
	ws.SetExt(key{}, 42)
	if got := ws.Ext(key{}); got != 42 {
		t.Fatalf("Ext = %v, want 42", got)
	}
}

func TestGetPutRoundTripAndStats(t *testing.T) {
	g0, n0, p0 := Stats()
	ws := Get()
	ws.Nodes.Put(make([]graph.Node, 8))
	Put(ws)
	g1, n1, p1 := Stats()
	if g1 <= g0 || p1 <= p0 {
		t.Fatalf("stats did not advance: gets %d->%d puts %d->%d", g0, g1, p0, p1)
	}
	if n1 < n0 {
		t.Fatalf("news went backwards: %d -> %d", n0, n1)
	}
}

func TestPrewarm(t *testing.T) {
	g0, _, p0 := Stats()
	Prewarm(3)
	g1, _, p1 := Stats()
	if g1-g0 != 3 || p1-p0 != 3 {
		t.Fatalf("Prewarm(3) moved gets %d puts %d, want 3 and 3", g1-g0, p1-p0)
	}
}
