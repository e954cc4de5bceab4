// Cross-module integration tests: the full pipeline — target system,
// generated watchdog, fault injection, alarm, capsule capture, recovery —
// wired together the way a deployment would run it.
package gowatchdog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/capsule"
	"gowatchdog/internal/coord"
	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/recovery"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

// TestIntegrationKVSFullLoop drives kvs end to end: client traffic over
// TCP, replication to a live replica, a scheduled watchdog, an injected
// gray failure, alarm -> capsule -> recovery -> verified healthy again.
func TestIntegrationKVSFullLoop(t *testing.T) {
	dir := t.TempDir()
	factory := watchdog.NewFactory()

	// Replica.
	replicaStore, err := kvs.Open(kvs.Config{Dir: filepath.Join(dir, "replica")})
	if err != nil {
		t.Fatal(err)
	}
	defer replicaStore.Close()
	rs, err := kvs.ServeReplica("127.0.0.1:0", replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Primary with watchdog, capsule recorder and recovery manager.
	store, err := kvs.Open(kvs.Config{
		Dir:                 filepath.Join(dir, "primary"),
		ReplicaAddr:         rs.Addr(),
		FlushThresholdBytes: 1 << 30,
		WatchdogFactory:     factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Start()
	srv, err := kvs.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	shadow, err := wdio.NewFS(filepath.Join(dir, "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	driver := watchdog.New(
		watchdog.WithFactory(factory),
		watchdog.WithInterval(25*time.Millisecond),
		watchdog.WithTimeout(250*time.Millisecond),
	)
	store.InstallWatchdog(driver, shadow)

	rec, err := capsule.NewRecorder(filepath.Join(dir, "capsules"))
	if err != nil {
		t.Fatal(err)
	}
	var recMu sync.Mutex
	driver.OnReport(func(rep watchdog.Report) {
		recMu.Lock()
		rec.OnReport(rep)
		recMu.Unlock()
	})

	mgr := recovery.New()
	mgr.Register(recovery.ForSiteOp("quarantine", "sstable.VerifyChecksum",
		func(watchdog.Report) error {
			for i := 0; i < store.Partitions(); i++ {
				if _, err := store.RepairPartition(i); err != nil {
					return err
				}
			}
			return nil
		}))
	driver.OnAlarm(mgr.HandleAlarm)
	driver.Start()
	defer driver.Stop()

	// Client workload over the real TCP protocol.
	client, err := kvs.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 100; i++ {
		if err := client.Set(fmt.Sprintf("it/key%03d", i), fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	store.FlushAll(true)
	for i := 0; i < 100; i += 7 {
		v, err := client.Get(fmt.Sprintf("it/key%03d", i))
		if err != nil || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, err)
		}
	}
	// Replication converged.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok, _ := replicaStore.Get([]byte("it/key099")); ok && string(v) == "value-99" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The scheduled watchdog has been running healthy.
	time.Sleep(100 * time.Millisecond)
	if !driver.Healthy() {
		t.Fatalf("driver unhealthy on healthy system: %v", lastAbnormal(driver))
	}

	// Inject silent corruption into whichever partition holds "it/" keys.
	var corrupted string
	for i := 0; i < store.Partitions(); i++ {
		if paths := store.TablePaths(i); len(paths) > 0 {
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			data[9] ^= 0x20
			os.WriteFile(paths[0], data, 0o644)
			corrupted = paths[0]
			break
		}
	}
	if corrupted == "" {
		t.Fatal("no table to corrupt")
	}

	// The scheduled watchdog detects; recovery quarantines; health returns.
	deadline = time.Now().Add(10 * time.Second)
	for {
		evs := mgr.Events()
		if len(evs) > 0 && evs[0].Kind == recovery.EventRecovered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never ran; driver history: %v", lastAbnormal(driver))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(corrupted + ".corrupt"); err != nil {
		t.Fatalf("corrupt table not quarantined: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for !driver.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("driver never recovered: %v", lastAbnormal(driver))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A capsule was cut for the corruption report and replays meaningfully.
	recMu.Lock()
	captured := rec.Captured()
	recMu.Unlock()
	if captured == 0 {
		t.Fatal("no capsule captured")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "capsules"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("capsule files: %v, %v", entries, err)
	}
	var found *capsule.Capsule
	for _, e := range entries {
		c, err := capsule.ReadFile(filepath.Join(dir, "capsules", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(c.Site.Op, "VerifyChecksum") {
			found = c
		}
	}
	if found == nil {
		t.Fatal("no capsule pinpoints the checksum site")
	}
	// Replayed after the repair, the capsule no longer reproduces the fault.
	verifyAll := watchdog.NewChecker("kvs.partition.replay", func(*watchdog.Context) error {
		for i := 0; i < store.Partitions(); i++ {
			if err := store.VerifyPartition(i); err != nil {
				return err
			}
		}
		return nil
	})
	if rep, err := capsule.Replay(verifyAll, found); err != nil || rep.Status != watchdog.StatusHealthy {
		t.Fatalf("capsule replay after repair = %v, %v", rep, err)
	}

	// Client data covered by healthy state still readable after repair (the
	// memtable was flushed into the quarantined table, so re-set a key and
	// confirm the store still serves).
	if err := client.Set("post/repair", "ok"); err != nil {
		t.Fatal(err)
	}
	if v, err := client.Get("post/repair"); err != nil || v != "ok" {
		t.Fatalf("post-repair Get = %q, %v", v, err)
	}
}

// TestIntegrationCoordAndDFSWatchdogsCoexist runs coord and dfs watchdogs
// in one process against simultaneous faults in both systems, verifying
// independent detection with correct pinpoints.
func TestIntegrationCoordAndDFSWatchdogsCoexist(t *testing.T) {
	dir := t.TempDir()

	// coord leader + follower.
	follower, err := coord.NewFollower("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	coordFactory := watchdog.NewFactory()
	leader := coord.NewLeader(coord.LeaderConfig{
		FollowerAddr:    follower.Addr(),
		WatchdogFactory: coordFactory,
	})
	leader.Start()
	defer leader.Close()

	// dfs DataNode (its own factory/driver — one watchdog per system).
	dfsStore, dfsDriver := newDFSWithWatchdog(t, dir)

	coordShadow, err := wdio.NewFS(filepath.Join(dir, "coord-shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	coordDriver := watchdog.New(
		watchdog.WithFactory(coordFactory),
		watchdog.WithTimeout(200*time.Millisecond),
	)
	leader.InstallWatchdog(coordDriver, coordShadow)

	// Healthy traffic on both systems.
	if err := leader.SubmitWait(coord.OpCreate, "/it", []byte("x"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := dfsStore.WriteBlock([]byte("block")); err != nil {
		t.Fatal(err)
	}

	// Simultaneous faults: coord network hang + dfs volume errors.
	leader.Injector().Arm(coord.FaultSyncSend, faultinject.Fault{Kind: faultinject.Hang})
	defer leader.Injector().Clear()
	dfsStore.Injector().Arm("dfs.volume.write.0", faultinject.Fault{Kind: faultinject.Error})
	defer dfsStore.Injector().Clear()

	// coord detects its hang with the network pinpoint.
	coordRep := make(chan watchdog.Report, 1)
	go func() {
		rep, _ := coordDriver.CheckNow("coord.sync")
		coordRep <- rep
	}()
	// dfs detects its disk fault with the volume pinpoint.
	dfsReport, err := dfsDriver.CheckNow("dfs.disk")
	if err != nil {
		t.Fatal(err)
	}
	if dfsReport.Status != watchdog.StatusError ||
		!strings.Contains(dfsReport.Site.Op, "volume0") {
		t.Fatalf("dfs report = %v site=%v", dfsReport.Status, dfsReport.Site)
	}
	select {
	case rep := <-coordRep:
		if rep.Status != watchdog.StatusStuck || rep.Site.Op != "net.Write" {
			t.Fatalf("coord report = %v site=%v", rep.Status, rep.Site)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coord watchdog never detected")
	}
}

func lastAbnormal(d *watchdog.Driver) []string {
	var out []string
	for _, rep := range d.History() {
		if rep.Status.Abnormal() {
			out = append(out, rep.String())
		}
	}
	if len(out) > 5 {
		out = out[len(out)-5:]
	}
	return out
}

// newDFSWithWatchdog builds a two-volume DataNode with its watchdog, fed by
// one real write so the mimic checker's context is ready.
func newDFSWithWatchdog(t *testing.T, dir string) (*dfs.DataNode, *watchdog.Driver) {
	t.Helper()
	factory := watchdog.NewFactory()
	dn, err := dfs.New(dfs.Config{
		VolumeDirs:      []string{filepath.Join(dir, "vol0"), filepath.Join(dir, "vol1")},
		WatchdogFactory: factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := watchdog.New(watchdog.WithFactory(factory), watchdog.WithTimeout(200*time.Millisecond))
	dn.InstallWatchdog(d)
	return dn, d
}
