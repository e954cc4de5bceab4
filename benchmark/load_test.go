package main

import (
	"sort"
	"testing"
	"time"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
)

// TestOpenLoopChargesAStallToEveryDelayedRequest stalls the server once for
// 60 ms under an open loop at 2000 requests a second. About 120 requests come
// due during the stall; each must be timed from its due time, so about a
// hundred of them show more than 10 ms, and the generator itself must not
// have fallen behind (a closed loop would show one slow request and a quiet
// generator).
func TestOpenLoopChargesAStallToEveryDelayedRequest(t *testing.T) {
	store, err := kvs.Open(kvs.Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := kvs.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const stall = 60 * time.Millisecond
	store.Injector().Arm(kvs.FaultListenerHandle, faultinject.Fault{Kind: faultinject.Delay, Delay: stall, Count: 1})

	ks := newKeyspace(256)
	stream := newOpStream(1, ks, 0, 1, mix{set: 1}, false, 64, 0)
	cfg := loadCfg{conns: 1, depth: 1024, rate: 2000, window: 400 * time.Millisecond, windows: 1, valueSize: 64}
	res, err := runLoad(srv.Addr(), ks, []*opStream{stream}, cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 700 {
		t.Fatalf("attempted %d, failed %d (%v), want about 800 and none", res.attempted, res.failed, res.firstErr)
	}
	lat := res.latencies(opSet)
	slow := len(lat) - sort.SearchFloat64s(lat, 10_000)
	if slow < 60 || slow > 130 {
		t.Errorf("%d requests took over 10 ms from their due time, want about 100: the stall must be charged to each request it delayed", slow)
	}
	if worst := lat[len(lat)-1]; worst < 50_000 {
		t.Errorf("slowest request took %.0f us, want at least most of the %v stall", worst, stall)
	}
	sort.Float64s(res.late)
	if p99 := percentile(res.late, 99); p99 > 10_000 {
		t.Errorf("the generator ran %.0f us late at p99; it must keep its schedule through a server stall", p99)
	}
}

// TestClosedLoopVerifiesAnswers runs the closed loop for a moment against a
// store holding one deliberately wrong value and expects the oracle to say so.
func TestClosedLoopVerifiesAnswers(t *testing.T) {
	store, err := kvs.Open(kvs.Config{InMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := kvs.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ks := newKeyspace(64)
	if err := preload(store, ks, 64, 0); err != nil {
		t.Fatal(err)
	}
	run := func() *loadResult {
		stream := newOpStream(1, ks, 0, 1, mix{get: 90, scan: 10}, false, 64, 1)
		cfg := loadCfg{conns: 1, depth: 8, window: 100 * time.Millisecond, windows: 1, valueSize: 64}
		res, err := runLoad(srv.Addr(), ks, []*opStream{stream}, cfg, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); res.failed != 0 || res.attempted == 0 {
		t.Fatalf("clean store: attempted %d, failed %d (%v)", res.attempted, res.failed, res.firstErr)
	}
	// Key 5 now holds key 6's value.
	if err := store.Set([]byte(ks.keys[5]), []byte(valueFor(6, 1, 64))); err != nil {
		t.Fatal(err)
	}
	if res := run(); res.failed == 0 {
		t.Error("a key holding another key's value went unnoticed")
	}
}
