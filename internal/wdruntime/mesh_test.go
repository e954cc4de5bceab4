package wdruntime_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdobs"
	"gowatchdog/internal/wdruntime"
)

// meshRuntime builds a runtime joined to net with fast timing and a
// journal, running one checker driven by fail.
func meshRuntime(t *testing.T, net *wdmesh.MemNetwork, self string, peers []string, fail func() bool) *wdruntime.Runtime {
	t.Helper()
	rt, err := wdruntime.New(
		wdruntime.WithInterval(5*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
		wdruntime.WithMesh(self, peers...),
		wdruntime.WithMeshTransport(net.Node(self)),
		// A full mesh suspects a peer after 4 silent intervals: 80ms.
		wdruntime.WithMeshInterval(20*time.Millisecond),
		wdruntime.WithJournalPath(filepath.Join(t.TempDir(), "journal.jsonl")),
	)
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	rt.Driver().Register(watchdog.NewChecker("probe", func(*watchdog.Context) error {
		if fail != nil && fail() {
			return errors.New("injected probe failure")
		}
		return nil
	}), watchdog.WithContext(readyContext()))
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start(%s): %v", self, err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// TestMeshVerdictReachesPeerJournals: one node's checker fails locally; the
// other nodes' detection journals record the quorum-corroborated intrinsic
// verdict as a KindMesh event, and clear it once the checker recovers.
func TestMeshVerdictReachesPeerJournals(t *testing.T) {
	net := wdmesh.NewMemNetwork(nil, nil)
	var failing atomic.Bool
	failing.Store(true)
	a := meshRuntime(t, net, "a", []string{"b", "c"}, nil)
	b := meshRuntime(t, net, "b", []string{"a", "c"}, nil)
	meshRuntime(t, net, "c", []string{"a", "b"}, failing.Load)

	meshEvent := func(rt *wdruntime.Runtime, healthy bool) *wdobs.Event {
		for _, e := range rt.Obs().Journal().Events() {
			if e.Kind != wdobs.KindMesh || e.Report.Checker != "wdmesh.c" {
				continue
			}
			if (e.Report.Status == watchdog.StatusHealthy) == healthy {
				ev := e
				return &ev
			}
		}
		return nil
	}
	waitFor(t, 5*time.Second, func() bool {
		return meshEvent(a, false) != nil && meshEvent(b, false) != nil
	}, "raised mesh verdicts in both peer journals")

	ev := meshEvent(a, false)
	if ev.Report.Status != watchdog.StatusError {
		t.Fatalf("journaled verdict status = %v, want the gossiped worst status error", ev.Report.Status)
	}
	if ev.Report.Err == nil || !strings.Contains(ev.Report.Err.Error(), "reachable but its watchdog alarms") {
		t.Fatalf("journaled verdict error = %v, want an intrinsic-verdict description", ev.Report.Err)
	}
	if m := a.Mesh(); m == nil {
		t.Fatal("Mesh() nil on a mesh-enabled runtime after Start")
	}
	// The obs snapshot carries the mesh section for /watchdog consumers.
	snap := a.Obs().Snapshot()
	if snap.Mesh == nil || snap.Mesh.Self != "a" {
		t.Fatalf("obs snapshot mesh section = %+v, want self=a", snap.Mesh)
	}

	failing.Store(false)
	waitFor(t, 5*time.Second, func() bool {
		return meshEvent(a, true) != nil && meshEvent(b, true) != nil
	}, "cleared mesh verdicts in both peer journals")
}

// TestMeshOutageDegradesToLocalDetection is the graceful-degradation
// acceptance test: every peer is gone (sends fail), yet local detection still
// alarms and Drain/Close keep their ordering and bounds.
func TestMeshOutageDegradesToLocalDetection(t *testing.T) {
	net := wdmesh.NewMemNetwork(nil, nil)
	// Peers "ghost1"/"ghost2" are never registered: a total mesh outage.
	rt := meshRuntime(t, net, "solo", []string{"ghost1", "ghost2"}, func() bool { return true })

	// Node-local detection is unaffected: the failing checker still alarms.
	waitFor(t, 5*time.Second, func() bool { return rt.Obs().Snapshot().Alarms > 0 },
		"a local alarm despite the mesh outage")
	waitFor(t, 5*time.Second, func() bool {
		m := rt.Mesh().Snapshot()
		return m.SendFailures > 0 && m.PeersSuspect == 2
	}, "the outage to surface as send failures and suspect peers")
	// No cluster verdict can form: one observer never meets quorum 2.
	if n := len(rt.Mesh().Verdicts()); n != 0 {
		t.Fatalf("%d cluster verdicts with no reachable peers, want 0 (quorum not met)", n)
	}

	// Shutdown ordering and bounds survive the outage.
	start := time.Now()
	if err := rt.Drain(); err != nil {
		t.Fatalf("Drain under mesh outage: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close under mesh outage: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v under a mesh outage, want bounded", elapsed)
	}
}

// TestMeshConfigValidation: peers without an identity fail fast in New.
func TestMeshConfigValidation(t *testing.T) {
	if _, err := wdruntime.New(wdruntime.WithMesh("", "peer:1")); err == nil {
		t.Fatal("New accepted mesh peers without a mesh identity")
	}
}
