package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func schedule(seed int64) []request {
	m := &mixer{rng: rand.New(rand.NewSource(seed)), pool: 64, warm: 32, nextSeed: warmSeed}
	return openLoopSchedule(m, 30, 10*time.Second)
}

func TestOpenLoopScheduleIsSeeded(t *testing.T) {
	a, b := schedule(1), schedule(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, schedule(2)) {
		t.Fatal("seeds 1 and 2 drew the same schedule")
	}
	counts := make([]int, numClasses)
	for i := 0; i < len(a); i++ {
		q := a[i]
		counts[q.class]++
		if i > 0 && q.at < a[i-1].at {
			t.Fatalf("request %d due at %v, before its predecessor at %v", i, q.at, a[i-1].at)
		}
		switch q.class {
		case classHit:
			if q.seed != warmSeed || q.graph >= 32 {
				t.Errorf("hit %d does not resend a warm-up body: %+v", i, q)
			}
		case classCoalesced:
			// A pair: the next request is its identical twin.
			if i+1 >= len(a) || a[i+1] != q {
				t.Errorf("coalesced request %d has no twin", i)
			}
			i++
		}
	}
	// About 300 arrivals at 30/s over 10 s; every class appears.
	if len(a) < 200 || len(a) > 420 {
		t.Errorf("%d requests in 10 s at 30/s", len(a))
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("class %s never drawn", classNames[c])
		}
	}
}

// TestOpenLoopChargesStallsToLaterRequests: one 200 ms stall on a single
// connection must show in the latency of the requests due behind it,
// because latency runs from when a request was due, not when it was sent.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	send := func(q request) *response {
		rr := &response{req: q}
		resp, err := client.Get(srv.URL)
		if err != nil {
			rr.err = err
			return rr
		}
		defer resp.Body.Close()
		rr.status = resp.StatusCode
		rr.body, rr.err = io.ReadAll(resp.Body)
		return rr
	}
	var reqs []request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, request{at: time.Duration(i) * 40 * time.Millisecond})
	}
	out, late := runOpenLoop(reqs, send)
	for i, rr := range out {
		if rr.err != nil || rr.status != http.StatusOK {
			t.Fatalf("request %d: %v status %d", i, rr.err, rr.status)
		}
		if late[i] > 50 {
			t.Errorf("request %d dispatched %.1f ms late", i, late[i])
		}
	}
	// Request 1 was due at 40 ms and could only go out after the stall
	// ended at about 200 ms; request 11, due at 440 ms, met no backlog.
	if got := out[1].latency; got < 150*time.Millisecond {
		t.Errorf("request behind the stall took %v from its due time, want at least 150ms", got)
	}
	if got := out[11].latency; got > 100*time.Millisecond {
		t.Errorf("request due after the backlog cleared took %v", got)
	}
}
