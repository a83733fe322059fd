package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ppnpart/internal/refine"
)

// ringBody builds a valid JSON submission: an n-node ring with weighted
// nodes and edges.
func ringBody(n, k int, bmax, rmax int64, extra string) string {
	var nodes, edges []string
	for i := 0; i < n; i++ {
		nodes = append(nodes, fmt.Sprintf(`{"id":%d,"weight":%d}`, i, 1+i%3))
		edges = append(edges, fmt.Sprintf(`{"u":%d,"v":%d,"weight":%d}`, i, (i+1)%n, 1+i%5))
	}
	s := fmt.Sprintf(`{"graph":{"nodes":[%s],"edges":[%s]},"k":%d,"bmax":%d,"rmax":%d`,
		strings.Join(nodes, ","), strings.Join(edges, ","), k, bmax, rmax)
	if extra != "" {
		s += "," + extra
	}
	return s + "}"
}

func TestDecodeValid(t *testing.T) {
	req, g, err := DecodeJobRequest(strings.NewReader(ringBody(8, 3, 100, 50, "")))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 || g.NumEdges() != 8 {
		t.Fatalf("graph %d nodes %d edges, want 8/8", g.NumNodes(), g.NumEdges())
	}
	if req.K != 3 || req.Bmax != 100 || req.Rmax != 50 {
		t.Fatalf("request fields wrong: %+v", req)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"empty body":        ``,
		"not json":          `{{{`,
		"no nodes":          `{"graph":{"nodes":[],"edges":[]},"k":2}`,
		"zero k":            ringBody(8, 0, 0, 0, ""),
		"negative k":        ringBody(8, -3, 0, 0, ""),
		"k exceeds nodes":   ringBody(4, 9, 0, 0, ""),
		"negative bmax":     ringBody(8, 2, -5, 0, ""),
		"negative rmax":     ringBody(8, 2, 0, -5, ""),
		"negative timeout":  ringBody(8, 2, 0, 0, `"timeout_ms":-1`),
		"unknown field":     ringBody(8, 2, 0, 0, `"bogus":true`),
		"sparse node ids":   `{"graph":{"nodes":[{"id":0},{"id":5}],"edges":[]},"k":1}`,
		"duplicate nodes":   `{"graph":{"nodes":[{"id":0},{"id":0}],"edges":[]},"k":1}`,
		"negative nodeW":    `{"graph":{"nodes":[{"id":0,"weight":-1}],"edges":[]},"k":1}`,
		"negative edgeW":    `{"graph":{"nodes":[{"id":0},{"id":1}],"edges":[{"u":0,"v":1,"weight":-2}]},"k":1}`,
		"self loop":         `{"graph":{"nodes":[{"id":0}],"edges":[{"u":0,"v":0,"weight":1}]},"k":1}`,
		"edge out of range": `{"graph":{"nodes":[{"id":0}],"edges":[{"u":0,"v":7,"weight":1}]},"k":1}`,
		"trailing data":     ringBody(8, 2, 0, 0, "") + `{"k":3}`,
	}
	for name, body := range cases {
		if _, _, err := DecodeJobRequest(strings.NewReader(body)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}

// TestCacheKeyEffectiveCloneBudget checks that the clone budget enters the
// key in effective form: an omitted max_clones shares the default
// budget's entry, and max_clones without replication changes nothing.
func TestCacheKeyEffectiveCloneBudget(t *testing.T) {
	key := func(options string) string {
		t.Helper()
		req, g, err := DecodeJobRequest(strings.NewReader(ringBody(8, 3, 100, 50, `"options":`+options)))
		if err != nil {
			t.Fatal(err)
		}
		return req.CacheKey(g)
	}
	def := fmt.Sprintf(`{"replicate":true,"max_clones":%d}`, refine.DefaultMaxClones)
	if key(`{"replicate":true}`) != key(def) {
		t.Error("replicate with max_clones omitted and with the default budget hash differently")
	}
	if key(`{}`) != key(`{"max_clones":5}`) {
		t.Error("max_clones split the cache with replication off")
	}
	if key(`{"replicate":true,"max_clones":5}`) == key(`{"replicate":true}`) {
		t.Error("a non-default clone budget shares the default budget's entry")
	}
	if key(`{"replicate":true}`) == key(`{}`) {
		t.Error("replication did not split the cache")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	req1, g1, err := DecodeJobRequest(strings.NewReader(ringBody(8, 3, 100, 50, "")))
	if err != nil {
		t.Fatal(err)
	}
	// Same graph with edges listed in reverse and endpoints swapped.
	var jr JobRequest
	if err := json.Unmarshal([]byte(ringBody(8, 3, 100, 50, "")), &jr); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(jr.Graph.Edges)-1; i < j; i, j = i+1, j-1 {
		jr.Graph.Edges[i], jr.Graph.Edges[j] = jr.Graph.Edges[j], jr.Graph.Edges[i]
	}
	for i := range jr.Graph.Edges {
		jr.Graph.Edges[i].U, jr.Graph.Edges[i].V = jr.Graph.Edges[i].V, jr.Graph.Edges[i].U
	}
	g2, err := jr.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := req1.CacheKey(g1), jr.CacheKey(g2); k1 != k2 {
		t.Fatalf("edge order perturbed the cache key: %s != %s", k1, k2)
	}

	// Delivery fields must not enter the key...
	async := *req1
	async.Async = true
	async.TimeoutMS = 12345
	if req1.CacheKey(g1) != async.CacheKey(g1) {
		t.Fatal("async/timeout changed the cache key")
	}
	// ...but solver-relevant fields must.
	for name, mut := range map[string]func(*JobRequest){
		"k":        func(r *JobRequest) { r.K = 4 },
		"bmax":     func(r *JobRequest) { r.Bmax = 999 },
		"rmax":     func(r *JobRequest) { r.Rmax = 999 },
		"seed":     func(r *JobRequest) { r.Options.Seed = 7 },
		"minimize": func(r *JobRequest) { r.Options.MinimizeAfterFeasible = true },
	} {
		m := *req1
		mut(&m)
		if m.CacheKey(g1) == req1.CacheKey(g1) {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
}
