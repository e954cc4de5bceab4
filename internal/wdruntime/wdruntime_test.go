package wdruntime_test

import (
	"context"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/recovery"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdobs"
	"gowatchdog/internal/wdruntime"
)

func readyContext() *watchdog.Context {
	ctx := watchdog.NewContext()
	ctx.MarkReady()
	return ctx
}

// daemonConfig binds a daemon's flag set and parses args into it, so a test
// configures the runtime the way kvsd, dfsd and coordd do.
func daemonConfig(t *testing.T, args ...string) *wdruntime.Config {
	t.Helper()
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	cfg := wdruntime.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// readJournal parses the JSONL journal file at path.
func readJournal(t *testing.T, path string) []wdobs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := wdobs.ReadJournal(f)
	if err != nil {
		t.Fatalf("ReadJournal(%s): %v", path, err)
	}
	return events
}

// waitFor polls cond for up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLifecycleLeavesNoGoroutines proves Start → Drain → Close returns the
// process to its pre-runtime goroutine count even after a checker hung: once
// the hang is released, Drain reaps the leaked goroutine before Close returns.
func TestLifecycleLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	rt, err := wdruntime.New(
		wdruntime.WithInterval(5*time.Millisecond),
		// The drain budget is two timeouts: room to reap the released hang.
		wdruntime.WithTimeout(100*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := rt.Driver()
	d.Register(watchdog.NewChecker("ok", func(*watchdog.Context) error { return nil }),
		watchdog.WithContext(readyContext()))
	var hungOnce sync.Once
	hung := make(chan struct{})
	d.Register(watchdog.NewChecker("hang", func(*watchdog.Context) error {
		hungOnce.Do(func() { close(hung) })
		<-release
		return nil
	}), watchdog.WithContext(readyContext()))

	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	<-hung
	waitFor(t, 5*time.Second, func() bool { return d.LeakedHung() >= 1 },
		"the hung checker goroutine to be abandoned")

	close(release) // the hang resolves; Drain must now reap it
	if err := rt.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := d.LeakedHung(); n != 0 {
		t.Fatalf("LeakedHung after Drain = %d, want 0", n)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before },
		"goroutine count to return to the pre-runtime baseline")
}

// TestDrainReportsBlownBudget: a checker that never returns must surface as a
// Drain error naming the leak, not hang the shutdown forever.
func TestDrainReportsBlownBudget(t *testing.T) {
	release := make(chan struct{})
	defer close(release)

	rt, err := wdruntime.New(
		wdruntime.WithInterval(5*time.Millisecond),
		wdruntime.WithTimeout(25*time.Millisecond), // drain budget 2×25ms = 50ms
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := rt.Driver()
	d.Register(watchdog.NewChecker("stuck", func(*watchdog.Context) error {
		<-release
		return nil
	}), watchdog.WithContext(readyContext()))

	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return d.LeakedHung() >= 1 },
		"the stuck checker goroutine to be abandoned")

	err = rt.Drain()
	if err == nil || !strings.Contains(err.Error(), "drain budget") {
		t.Fatalf("Drain error = %v, want a drain-budget violation", err)
	}
	// Close must report the same verdict, not double-drain or hang.
	if cerr := rt.Close(); cerr == nil || !strings.Contains(cerr.Error(), "drain budget") {
		t.Fatalf("Close error = %v, want the drain-budget violation joined in", cerr)
	}
}

// TestCloseFlushesJournalBeforeObsServer pins the shutdown ordering the
// daemons rely on: Close syncs every journal entry to the -journal file, and
// after Close the -obs-addr server is gone.
func TestCloseFlushesJournalBeforeObsServer(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := daemonConfig(t, "-obs-addr", "127.0.0.1:0", "-journal", journal)
	rt, err := wdruntime.New(
		wdruntime.FromConfig(cfg),
		wdruntime.WithInterval(5*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d := rt.Driver()
	d.Register(watchdog.NewChecker("c", func(*watchdog.Context) error { return nil }),
		watchdog.WithContext(readyContext()))

	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := rt.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty after Start")
	}

	if _, err := d.CheckNow("c"); err != nil {
		t.Fatalf("CheckNow: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(rt.Obs().Journal().Events()) >= 1
	}, "a journal line to reach the journal")

	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := readJournal(t, journal)
	if ring := rt.Obs().Journal().Events(); len(events) < len(ring) {
		t.Fatalf("journal file holds %d events after Close, fewer than the ring's %d", len(events), len(ring))
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("obs server still answering after Close")
	}
}

// TestRecoveryWiring: a runtime-wired manager receives the alarm and runs the
// matching action, and Close waits for the retry machinery to settle.
func TestRecoveryWiring(t *testing.T) {
	var acted sync.WaitGroup
	acted.Add(1)
	var once sync.Once
	mgr := recovery.New()
	mgr.Register(recovery.ActionFunc{
		ActionName: "test.reset",
		Match:      func(watchdog.Report) bool { return true },
		Fn: func(watchdog.Report) error {
			once.Do(acted.Done)
			return nil
		},
	})

	rt, err := wdruntime.New(
		wdruntime.WithTimeout(time.Second),
		wdruntime.WithRecovery(mgr),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	boom := watchdog.NewChecker("boom", func(*watchdog.Context) error {
		return context.DeadlineExceeded
	})
	rt.Driver().Register(boom, watchdog.WithContext(readyContext()))
	if _, err := rt.Driver().CheckNow("boom"); err != nil {
		t.Fatalf("CheckNow: %v", err)
	}
	done := make(chan struct{})
	go func() { acted.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery action never ran from the runtime-wired alarm path")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestContextCancelStopsScheduling: cancelling the Start context stops the
// driver's scheduling loop without tearing the rest of the stack down.
func TestContextCancelStopsScheduling(t *testing.T) {
	rt, err := wdruntime.New(
		wdruntime.WithInterval(2*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var mu sync.Mutex
	checks := 0
	rt.Driver().Register(watchdog.NewChecker("tick", func(*watchdog.Context) error {
		mu.Lock()
		checks++
		mu.Unlock()
		return nil
	}), watchdog.WithContext(readyContext()))

	ctx, cancel := context.WithCancel(context.Background())
	if err := rt.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return checks >= 2
	}, "scheduled checks to run")
	cancel()
	// After cancellation settles, the check count must stop advancing.
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		a := checks
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		b := checks
		mu.Unlock()
		return a == b
	}, "scheduling to stop after context cancellation")
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBindFlagsParity pins the shared flag surface: exactly these names, each
// with its default and help text, and the parsed values landing in the Config
// New resolves. Every daemon binds this exact set, so this is the single place
// flag parity is enforced.
func TestBindFlagsParity(t *testing.T) {
	t.Setenv("WDSUPER_EPISODES", "")
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	f := wdruntime.BindFlags(fs)

	type spec struct{ def, usage string }
	want := map[string]spec{
		"wd-interval":      {"1s", "watchdog check interval"},
		"wd-timeout":       {"6s", "watchdog liveness timeout"},
		"wd-breaker":       {"0", "trip a checker's circuit breaker after this many consecutive failures (0 disables)"},
		"wd-damp":          {"0s", "suppress duplicate watchdog alarms within this window (0 disables)"},
		"wd-hang-budget":   {"0", "max leaked hung checker goroutines before checks degrade to skips (0 = unlimited)"},
		"obs-addr":         {"", "observability listen address (/metrics, /healthz, /watchdog, pprof)"},
		"journal":          {"", "file to stream the detection journal to as JSONL (wdstat renders it)"},
		"wd-rules":         {"", "JSON temporal-rule file for the wdcep engine; non-empty enables rule evaluation over the detection stream"},
		"sd-notify":        {"true", "feed the supervisor's watchdog (NOTIFY_SOCKET) while the intrinsic verdict is healthy; no-op when unsupervised"},
		"episodes":         {"", "outage-episode ledger (JSONL) to surface on /watchdog; wdsuper exports it as WDSUPER_EPISODES"},
		"wd-mesh-addr":     {"", "mesh identity and listen address for the cluster health plane (required with -wd-peers)"},
		"wd-peers":         {"", "comma-separated peer mesh addresses; non-empty joins the cluster health plane"},
		"wd-mesh-interval": {"1s", "mesh gossip interval"},
		"wd-quorum":        {"2", "observers that must corroborate a suspicion before it becomes a cluster verdict"},
	}
	seen := 0
	fs.VisitAll(func(fl *flag.Flag) {
		seen++
		w, ok := want[fl.Name]
		if !ok {
			t.Errorf("unexpected shared flag -%s", fl.Name)
			return
		}
		if fl.DefValue != w.def {
			t.Errorf("flag -%s default = %q, want %q", fl.Name, fl.DefValue, w.def)
		}
		if fl.Usage != w.usage {
			t.Errorf("flag -%s help = %q, want %q", fl.Name, fl.Usage, w.usage)
		}
	})
	if seen != len(want) {
		t.Errorf("%d shared flags bound, want %d", seen, len(want))
	}

	args := []string{
		"-wd-interval", "250ms", "-wd-timeout", "2s",
		"-wd-breaker", "4", "-wd-damp", "15s", "-wd-hang-budget", "3",
		"-wd-mesh-addr", "127.0.0.1:0", "-wd-peers", "n2:1, n3:1,",
		"-wd-mesh-interval", "100ms", "-wd-quorum", "3",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rt, err := wdruntime.New(wdruntime.FromConfig(f))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	cfg := rt.Config()
	if cfg.Interval != 250*time.Millisecond || cfg.Timeout != 2*time.Second {
		t.Errorf("Interval/Timeout = %v/%v, want 250ms/2s", cfg.Interval, cfg.Timeout)
	}
	if cfg.Breaker.Threshold != 4 {
		t.Errorf("Breaker.Threshold = %d, want 4", cfg.Breaker.Threshold)
	}
	if cfg.DampWindow != 15*time.Second {
		t.Errorf("DampWindow = %v, want 15s", cfg.DampWindow)
	}
	if cfg.HangBudget != 3 {
		t.Errorf("HangBudget = %d, want 3", cfg.HangBudget)
	}
	if cfg.JitterSeed != 1 {
		t.Errorf("JitterSeed = %d, want the driver default 1", cfg.JitterSeed)
	}
	if cfg.MeshAddr != "127.0.0.1:0" {
		t.Errorf("MeshAddr = %q, want 127.0.0.1:0", cfg.MeshAddr)
	}
	if len(cfg.MeshPeers) != 2 || cfg.MeshPeers[0] != "n2:1" || cfg.MeshPeers[1] != "n3:1" {
		t.Errorf("MeshPeers = %v, want [n2:1 n3:1] (trimmed, empties dropped)", cfg.MeshPeers)
	}
	if cfg.MeshInterval != 100*time.Millisecond {
		t.Errorf("MeshInterval = %v, want 100ms", cfg.MeshInterval)
	}
	if cfg.MeshQuorum != 3 {
		t.Errorf("MeshQuorum = %d, want 3", cfg.MeshQuorum)
	}
}

// TestBindFlagsDefaultsMatchNew: an unparsed flag set resolves to exactly the
// Config New builds with no options, apart from the two flag-only defaults
// (-sd-notify on, -episodes from the environment).
func TestBindFlagsDefaultsMatchNew(t *testing.T) {
	t.Setenv("WDSUPER_EPISODES", "")
	f := wdruntime.BindFlags(flag.NewFlagSet("daemon", flag.ContinueOnError))
	f.SdNotify = false
	bare, err := wdruntime.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !reflect.DeepEqual(*f, bare.Config()) {
		t.Fatalf("flag defaults %+v differ from New's %+v", *f, bare.Config())
	}
}

// TestNewRejectsBadConfig: non-positive interval/timeout fail fast.
func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := wdruntime.New(wdruntime.WithInterval(-time.Second)); err == nil {
		t.Error("New accepted a negative interval")
	}
	if _, err := wdruntime.New(wdruntime.WithTimeout(-time.Second)); err == nil {
		t.Error("New accepted a negative timeout")
	}
	if _, err := wdruntime.New(wdruntime.WithJournalPath("/nonexistent-dir-zz/j.jsonl")); err == nil {
		t.Error("New accepted an unopenable journal path")
	}
}
