package kvs

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

// watchedStore wires a store, its generated watchdog suite, and a shadow FS
// the way cmd/kvsd does.
func watchedStore(t *testing.T, mutate func(*Config)) (*Store, *watchdog.Driver) {
	t.Helper()
	factory := watchdog.NewFactory()
	dir := t.TempDir()
	cfg := Config{Dir: dir, FlushThresholdBytes: 1 << 30, WatchdogFactory: factory}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	shadow, err := wdio.NewFS(filepath.Join(dir, "wd-shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := watchdog.New(watchdog.WithFactory(factory), watchdog.WithTimeout(2*time.Second))
	s.InstallWatchdog(d, shadow)
	// A checker abandoned in a Hang goes on with its shadow I/O once
	// released: release it and let it finish before the directory goes.
	t.Cleanup(func() {
		s.Injector().Clear()
		for deadline := time.Now().Add(5 * time.Second); d.LeakedHung() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d checker execution(s) still hung after release", d.LeakedHung())
				return
			}
		}
	})
	return s, d
}

func TestWatchdogAllCheckersRegistered(t *testing.T) {
	_, d := watchedStore(t, nil)
	want := []string{"kvs.compaction", "kvs.flusher", "kvs.indexer", "kvs.partition", "kvs.wal"}
	got := d.Checkers()
	if len(got) != len(want) {
		t.Fatalf("checkers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkers = %v, want %v", got, want)
		}
	}
}

func TestWatchdogHealthyUnderNormalOperation(t *testing.T) {
	s, d := watchedStore(t, nil)
	// Drive real load so hooks populate every context.
	for i := 0; i < 50; i++ {
		s.Set([]byte{byte(i * 5)}, []byte("value"))
	}
	s.FlushAll(true)
	s.Set([]byte("more"), []byte("after-flush"))
	for _, rep := range d.CheckAll() {
		if rep.Status.Abnormal() {
			t.Errorf("%s abnormal on healthy store: %v", rep.Checker, rep)
		}
	}
	// The hook-gated checkers actually ran (contexts were ready).
	latest := make(map[string]watchdog.CheckerState)
	for _, st := range d.State() {
		latest[st.Name] = st
	}
	for _, name := range []string{"kvs.flusher", "kvs.wal", "kvs.indexer"} {
		st := latest[name]
		if !st.HasLatest || st.Latest.Status != watchdog.StatusHealthy {
			t.Errorf("%s: %v (ok=%v)", name, st.Latest.Status, st.HasLatest)
		}
	}
}

func TestWatchdogContextGatingInMemoryMode(t *testing.T) {
	// §3.1: kvs configured in-memory -> the disk flusher hook never fires ->
	// the flusher checker must be skipped, not report a spurious fault.
	s, d := watchedStore(t, func(c *Config) { c.InMemory = true })
	for i := 0; i < 20; i++ {
		s.Set([]byte{byte(i)}, []byte("v"))
	}
	s.FlushAll(true) // no-op in memory mode
	rep, err := d.CheckNow("kvs.flusher")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != watchdog.StatusContextPending {
		t.Fatalf("flusher checker status = %v, want context-pending", rep.Status)
	}
}

func TestWatchdogDetectsDiskFaultWithPinpoint(t *testing.T) {
	s, d := watchedStore(t, nil)
	s.Set([]byte("k"), []byte("v"))
	s.FlushAll(true) // populates the flusher context
	// Environment fault: the volume starts erroring.
	s.Injector().Arm(FaultFlushWrite, faultinject.Fault{Kind: faultinject.Error})
	rep, _ := d.CheckNow("kvs.flusher")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	if rep.Site.Op != "sstable.Write" {
		t.Fatalf("pinpoint = %v", rep.Site)
	}
	if rep.Payload["path"] == nil {
		t.Fatal("payload missing flush path")
	}
}

func TestWatchdogDetectsHangWithSharedFate(t *testing.T) {
	s, d := watchedStore(t, nil)
	s.Set([]byte("k"), []byte("v"))
	s.FlushAll(true)
	// Environment fault: compaction I/O hangs (stuck background task).
	s.Injector().Arm(FaultCompactMerge, faultinject.Fault{Kind: faultinject.Hang})
	done := make(chan watchdog.Report, 1)
	go func() {
		rep, _ := d.CheckNow("kvs.compaction")
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Status != watchdog.StatusStuck {
			t.Fatalf("status = %v, want stuck", rep.Status)
		}
		if rep.Site.Op != "sstable.Merge" {
			t.Fatalf("pinpoint = %v", rep.Site)
		}
		// A gray failure: an extrinsic prober still sees a healthy store.
		srv, err := Serve("127.0.0.1:0", s)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := dialClient(t, srv.Addr())
		pingErr := c.Ping()
		if v, err := c.Get("k"); pingErr != nil || err != nil || v != "v" {
			t.Fatalf("client view while compaction is stuck: PING = %v, GET = %q, %v", pingErr, v, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("driver never detected the hang")
	}
	s.Injector().Clear()
}

func TestWatchdogDetectsSilentCorruption(t *testing.T) {
	s, d := watchedStore(t, nil)
	s.Set([]byte("k"), []byte("precious"))
	s.FlushAll(true)
	// Corrupt a flushed SSTable behind the store's back.
	p := s.partitionFor([]byte("k"))
	p.mu.Lock()
	path := p.tables.tables[0].Path()
	p.mu.Unlock()
	corruptFile(t, path)
	rep, _ := d.CheckNow("kvs.partition")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v, want error", rep.Status)
	}
	if rep.Site.Op != "sstable.VerifyChecksum" {
		t.Fatalf("pinpoint = %v", rep.Site)
	}
}

func TestWatchdogIndexerProbeIsolation(t *testing.T) {
	s, d := watchedStore(t, nil)
	s.Set([]byte("client-key"), []byte("client-value"))
	for i := 0; i < 5; i++ {
		rep, _ := d.CheckNow("kvs.indexer")
		if rep.Status != watchdog.StatusHealthy {
			t.Fatalf("indexer checker: %v", rep)
		}
	}
	// Checker probes never leak into client-visible data.
	entries, err := s.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if string(e.Key) != "client-key" {
			t.Fatalf("unexpected key leaked: %q", e.Key)
		}
	}
}

func TestWatchdogReplCheckerRoundTrip(t *testing.T) {
	replica := openStore(t, nil)
	rs, err := ServeReplica("127.0.0.1:0", replica)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	s, d := watchedStore(t, func(c *Config) { c.ReplicaAddr = rs.Addr() })
	s.Start()
	s.Set([]byte("k"), []byte("v"))
	waitReplicated(t, replica, "k", "v")

	rep, errNow := d.CheckNow("kvs.repl")
	if errNow != nil {
		t.Fatal(errNow)
	}
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("repl checker = %v err=%v", rep.Status, rep.Err)
	}
	// The checker's zero-length probe frame must not create data.
	if n, _, _ := replica.Get([]byte("")); n != nil {
		t.Fatal("probe frame created data on replica")
	}

	// Kill the replica: the mimic checker now fails with the network site.
	rs.Close()
	rep, _ = d.CheckNow("kvs.repl")
	if !rep.Status.Abnormal() {
		t.Fatalf("repl checker healthy with dead replica: %v", rep)
	}
	if rep.Site.Op != "net.Write" {
		t.Fatalf("pinpoint = %v", rep.Site)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte just past the 8-byte magic so the corruption lands in the
	// data section covered by the table checksum.
	data[9] ^= 0x55
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
}

func readFile(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
