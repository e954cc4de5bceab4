package coord

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/detect"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

func standaloneLeader(t *testing.T, mutate func(*LeaderConfig)) *Leader {
	t.Helper()
	cfg := LeaderConfig{}
	if mutate != nil {
		mutate(&cfg)
	}
	l := NewLeader(cfg)
	l.Start()
	t.Cleanup(l.Close)
	return l
}

func TestLeaderStandaloneWrites(t *testing.T) {
	l := standaloneLeader(t, nil)
	if err := l.SubmitWait(OpCreate, "/svc", []byte("v1"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.SubmitWait(OpSet, "/svc", []byte("v2"), time.Second); err != nil {
		t.Fatal(err)
	}
	v, _, err := l.Tree().Get("/svc")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := l.SubmitWait(OpDelete, "/svc", nil, time.Second); err != nil {
		t.Fatal(err)
	}
	assigned, committed := l.Zxids()
	if assigned != 3 || committed != 3 {
		t.Fatalf("zxids = %d/%d", assigned, committed)
	}
}

func TestLeaderRejectsBadRequests(t *testing.T) {
	l := standaloneLeader(t, nil)
	if err := l.SubmitWait("chmod", "/x", nil, time.Second); err == nil ||
		!strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op: %v", err)
	}
	if err := l.SubmitWait(OpCreate, "not-absolute", nil, time.Second); !errors.Is(err, ErrBadPath) {
		t.Fatalf("bad path: %v", err)
	}
	if err := l.SubmitWait(OpSet, "/missing", nil, time.Second); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node: %v", err)
	}
}

func TestLeaderFollowerReplication(t *testing.T) {
	f, err := NewFollower("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	l := standaloneLeader(t, func(c *LeaderConfig) { c.FollowerAddr = f.Addr() })
	if err := l.SubmitWait(OpCreate, "/repl", []byte("data"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, _, err := f.Tree().Get("/repl"); err == nil && string(v) == "data" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never applied the proposal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Applied() != 1 {
		t.Fatalf("Applied = %d", f.Applied())
	}
}

func TestHeartbeatThreadBeatsDetector(t *testing.T) {
	v := clock.NewVirtual()
	l := NewLeader(LeaderConfig{Clock: v, HeartbeatInterval: time.Second})
	hb := detect.NewHeartbeat(v, 3*time.Second)
	var beats atomic.Int64
	l.OnHeartbeat(func() {
		beats.Add(1)
		hb.Beat()
	})
	l.Start()
	defer l.Close()
	v.BlockUntil(1)
	for i := 0; i < 5; i++ {
		v.Advance(time.Second)
	}
	deadline := time.Now().Add(2 * time.Second)
	for beats.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat thread never beat the detector")
		}
		time.Sleep(time.Millisecond)
	}
	if hb.Suspect() {
		t.Fatal("detector suspects a healthy leader")
	}
}

func TestSessionLifecycle(t *testing.T) {
	v := clock.NewVirtual()
	st := NewSessionTable(v, 10*time.Second)
	id := st.Open()
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
	v.Advance(8 * time.Second)
	if !st.Touch(id) {
		t.Fatal("Touch on live session failed")
	}
	v.Advance(8 * time.Second)
	if n := st.ExpireIdle(); n != 0 {
		t.Fatalf("expired %d, want 0 (was touched)", n)
	}
	v.Advance(11 * time.Second)
	if n := st.ExpireIdle(); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if st.Touch(id) {
		t.Fatal("Touch on expired session succeeded")
	}
	if st.Expired() != 1 {
		t.Fatalf("Expired = %d", st.Expired())
	}
	st.Close(st.Open())
	if st.Len() != 0 {
		t.Fatalf("Len after Close = %d", st.Len())
	}
}

func TestAdminServerRuokAndStat(t *testing.T) {
	l := standaloneLeader(t, nil)
	a, err := ServeAdmin("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := AdminRuok(a.Addr()); err != nil {
		t.Fatal(err)
	}
	// stat includes the committed zxid.
	l.SubmitWait(OpCreate, "/x", nil, time.Second)
	conn, err := dialTCP(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("stat\n"))
	buf := make([]byte, 512)
	n, _ := conn.Read(buf)
	out := string(buf[:n])
	if !strings.Contains(out, "Mode: leader") || !strings.Contains(out, "Committed: 1") {
		t.Fatalf("stat = %q", out)
	}
}

// TestZK2201GrayFailure reproduces the paper's §4.2 case study end to end:
// a network fault blocks the remote sync inside the commit critical
// section. All write processing hangs; the heartbeat detector and the admin
// command keep reporting the leader healthy; the generated mimic watchdog
// detects the blocked call and pinpoints it.
func TestZK2201GrayFailure(t *testing.T) {
	f, err := NewFollower("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	factory := watchdog.NewFactory()
	l := NewLeader(LeaderConfig{
		FollowerAddr:      f.Addr(),
		HeartbeatInterval: 10 * time.Millisecond,
		WatchdogFactory:   factory,
	})
	hb := detect.NewHeartbeat(clock.Real(), 500*time.Millisecond)
	l.OnHeartbeat(hb.Beat)
	l.Start()
	t.Cleanup(l.Close)

	admin, err := ServeAdmin("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })

	shadow, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled-down paper parameters: interval 50ms, timeout 300ms (paper: 1s/6s).
	d := watchdog.New(watchdog.WithFactory(factory),
		watchdog.WithInterval(50*time.Millisecond),
		watchdog.WithTimeout(300*time.Millisecond))
	l.InstallWatchdog(d, shadow)

	// Healthy traffic populates hooks and proves the pipeline works.
	if err := l.SubmitWait(OpCreate, "/app", []byte("x"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if rep, _ := d.CheckNow("coord.sync"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("sync checker unhealthy before fault: %v", rep)
	}

	// The network to the follower becomes a black hole.
	l.Injector().Arm(FaultSyncSend, faultinject.Fault{Kind: faultinject.Hang})
	defer l.Injector().Clear()

	// Write processing hangs (the request never completes).
	writeDone := l.Submit(OpCreate, "/app/hung", nil)
	select {
	case err := <-writeDone:
		t.Fatalf("write completed during black hole: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	// A second write queues behind the held commit lock.
	l.Submit(OpCreate, "/app/hung2", nil)

	// Reads still work — this is a partial failure.
	if _, _, err := l.Tree().Get("/app"); err != nil {
		t.Fatalf("reads broken during ZK-2201: %v", err)
	}

	// Extrinsic detectors stay green.
	time.Sleep(200 * time.Millisecond) // several heartbeat periods into the fault
	if hb.Suspect() {
		t.Fatal("heartbeat detector suspected the leader (it should not)")
	}
	if err := AdminRuok(admin.Addr()); err != nil {
		t.Fatalf("admin command failed (it should report healthy): %v", err)
	}

	// The mimic watchdog detects the hang and pinpoints the blocked call.
	start := time.Now()
	rep := make(chan watchdog.Report, 1)
	go func() {
		r, _ := d.CheckNow("coord.sync")
		rep <- r
	}()
	select {
	case r := <-rep:
		if r.Status != watchdog.StatusStuck {
			t.Fatalf("watchdog status = %v, want stuck", r.Status)
		}
		if r.Site.Function != "coord.sendProposal" || r.Site.Op != "net.Write" {
			t.Fatalf("pinpoint = %v", r.Site)
		}
		if r.Payload["follower"] == nil || r.Payload["path"] == nil {
			t.Fatalf("payload missing concrete context: %v", r.Payload)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("detection took %v with 300ms timeout", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never detected the blocked sync")
	}

	// Recovery: releasing the network lets the wedged write complete.
	l.Injector().Clear()
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("wedged write failed after recovery: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged write never completed after recovery")
	}
}

func TestPipelineSignalCheckerDetectsStall(t *testing.T) {
	f, err := NewFollower("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	factory := watchdog.NewFactory()
	l := NewLeader(LeaderConfig{FollowerAddr: f.Addr(), WatchdogFactory: factory})
	l.Start()
	t.Cleanup(l.Close)
	shadow, _ := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	d := watchdog.New(watchdog.WithFactory(factory))
	l.InstallWatchdog(d, shadow)

	// Seed the progress checker.
	if rep, _ := d.CheckNow("coord.pipeline"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("seed run: %v", rep)
	}
	l.Injector().Arm(FaultSyncSend, faultinject.Fault{Kind: faultinject.Hang})
	defer l.Injector().Clear()
	l.Submit(OpCreate, "/a", nil)
	l.Submit(OpCreate, "/b", nil) // stays queued behind the wedged request
	deadline := time.Now().Add(2 * time.Second)
	for l.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never backed up")
		}
		time.Sleep(time.Millisecond)
	}
	rep, _ := d.CheckNow("coord.pipeline")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("pipeline checker = %v, want error", rep.Status)
	}
}

func TestSnapshotCheckerMirrorsFigure3(t *testing.T) {
	factory := watchdog.NewFactory()
	l := NewLeader(LeaderConfig{WatchdogFactory: factory})
	l.Start()
	t.Cleanup(l.Close)
	shadow, _ := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	d := watchdog.New(watchdog.WithFactory(factory))
	l.InstallWatchdog(d, shadow)

	// Before any snapshot ran, the checker context is not ready (Figure 3:
	// "checker context not ready").
	rep, _ := d.CheckNow("coord.snapshot")
	if rep.Status != watchdog.StatusContextPending {
		t.Fatalf("status before snapshot = %v", rep.Status)
	}

	// A real snapshot executes the hook; the checker then runs the reduced
	// function.
	l.SubmitWait(OpCreate, "/cfg", []byte("payload"), time.Second)
	snapPath := filepath.Join(t.TempDir(), "snap.bin")
	if err := l.Tree().SnapshotToFile(snapPath, l.Injector(), factory); err != nil {
		t.Fatal(err)
	}
	rep, _ = d.CheckNow("coord.snapshot")
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("status after snapshot = %v err=%v", rep.Status, rep.Err)
	}

	// Snapshot volume fault: the checker detects and pinpoints WriteRecord.
	l.Injector().Arm(FaultSnapshotWrite, faultinject.Fault{Kind: faultinject.Error})
	rep, _ = d.CheckNow("coord.snapshot")
	if rep.Status != watchdog.StatusError || rep.Site.Op != "WriteRecord" {
		t.Fatalf("status = %v site = %v", rep.Status, rep.Site)
	}
}

func dialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
