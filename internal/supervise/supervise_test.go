package supervise

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gowatchdog/internal/supervise/episode"
)

func newLedger(t *testing.T) *episode.Ledger {
	t.Helper()
	l, err := episode.Open(filepath.Join(t.TempDir(), "episodes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.CloseFile() })
	return l
}

// episodes reads every episode from l's file, oldest first, the way wdobs
// and wdstat do.
func episodes(t *testing.T, l *episode.Ledger) []episode.Episode {
	t.Helper()
	eps, _, err := episode.Read(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// countSpawns counts the children a supervisor built from cfg starts,
// through Config.OnSpawn, keeping any hook already set.
func countSpawns(cfg *Config) *atomic.Int64 {
	var n atomic.Int64
	next := cfg.OnSpawn
	cfg.OnSpawn = func(pid int) {
		n.Add(1)
		if next != nil {
			next(pid)
		}
	}
	return &n
}

func testConfig(cmd ...string) Config {
	return Config{
		Command:       cmd,
		Stdout:        io.Discard,
		Stderr:        io.Discard,
		BackoffBase:   5 * time.Millisecond,
		BackoffCap:    20 * time.Millisecond,
		JitterSeed:    42,
		RestartWindow: 30 * time.Second,
		TermGrace:     2 * time.Second,
	}
}

func TestCleanExitEndsSupervision(t *testing.T) {
	cfg := testConfig("/bin/sh", "-c", "exit 0")
	spawns := countSpawns(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, want nil on clean exit", err)
	}
	if n := spawns.Load(); n != 1 {
		t.Fatalf("spawns=%d restarts=%d, want 1/0", n, n-1)
	}
}

// TestStormBreaker: a crash-looping child trips the breaker after MaxRestarts
// deaths, Run surfaces *StormError, and the ledger holds exactly one episode
// closed gave-up with every intermediate respawn counted.
func TestStormBreaker(t *testing.T) {
	l := newLedger(t)
	cfg := testConfig("/bin/sh", "-c", "exit 1")
	cfg.MaxRestarts = 3
	cfg.Ledger = l
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runErr := s.Run(context.Background())
	var storm *StormError
	if !errors.As(runErr, &storm) {
		t.Fatalf("Run = %v, want *StormError", runErr)
	}
	if storm.Deaths != 3 || storm.LastCause != "exit:1" {
		t.Fatalf("storm = %+v", storm)
	}
	eps := episodes(t, l)
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1: %+v", len(eps), eps)
	}
	e := eps[0]
	if !e.Closed || e.Resolution != episode.ResolutionGaveUp || e.Cause != "exit:1" {
		t.Fatalf("episode = %+v", e)
	}
	// 3 deaths = initial spawn + 2 respawns during the open episode.
	if e.Restarts != 2 {
		t.Fatalf("episode restarts = %d, want 2", e.Restarts)
	}
}

// TestKillRestartHealthyEpisode: SIGKILLing a healthy child opens an episode,
// the respawn's first probe success closes it, and a graceful cancel leaves
// the ledger with exactly one open/close pair.
func TestKillRestartHealthyEpisode(t *testing.T) {
	l := newLedger(t)
	cfg := testConfig("/bin/sh", "-c", "sleep 60")
	cfg.Ledger = l
	cfg.HealthProbe = func() error { return nil }
	cfg.ProbeEvery = 10 * time.Millisecond
	spawns := countSpawns(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	waitFor(t, "first spawn", func() bool { return spawns.Load() == 1 })
	pid := s.Pid()
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "respawn", func() bool { return spawns.Load() == 2 })
	waitFor(t, "episode closed healthy", func() bool {
		eps := episodes(t, l)
		return len(eps) == 1 && eps[0].Closed
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil after cancel", err)
	}

	e := episodes(t, l)[0]
	if e.Cause != "signal:killed" || e.Resolution != episode.ResolutionHealthy {
		t.Fatalf("episode = %+v", e)
	}
	if e.Restarts != 1 || e.HealthyNS <= 0 || e.OutageNS <= 0 {
		t.Fatalf("episode = %+v, want 1 restart and positive durations", e)
	}
}

// TestStuckProbeKill: a child whose health probe wedges is declared stuck,
// killed, and restarted; the episode records the stuck cause and closes once
// the replacement probes healthy.
func TestStuckProbeKill(t *testing.T) {
	l := newLedger(t)
	var wedged atomic.Bool
	cfg := testConfig("/bin/sh", "-c", "sleep 60")
	cfg.Ledger = l
	cfg.HealthProbe = func() error {
		if wedged.Load() {
			return fmt.Errorf("probe wedged")
		}
		return nil
	}
	cfg.ProbeEvery = 10 * time.Millisecond
	cfg.StuckAfter = 50 * time.Millisecond
	spawns := countSpawns(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	waitFor(t, "first spawn", func() bool { return spawns.Load() == 1 })
	wedged.Store(true)
	waitFor(t, "stuck kill + respawn", func() bool { return spawns.Load() == 2 })
	wedged.Store(false)
	waitFor(t, "episode closed", func() bool {
		eps := episodes(t, l)
		return len(eps) == 1 && eps[0].Closed
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil after cancel", err)
	}

	e := episodes(t, l)[0]
	if e.Cause != CauseStuck || e.Resolution != episode.ResolutionHealthy {
		t.Fatalf("episode = %+v", e)
	}
}

// TestWatchdogTriggerCause: a child exiting with ExitWatchdogTrigger is
// restarted with the watchdog-trigger cause — the process-level hand-off from
// in-process escalation (recovery.WithEscalationExit) to external restart.
func TestWatchdogTriggerCause(t *testing.T) {
	l := newLedger(t)
	cfg := testConfig("/bin/sh", "-c", fmt.Sprintf("exit %d", ExitWatchdogTrigger))
	cfg.MaxRestarts = 2
	cfg.Ledger = l
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var storm *StormError
	if err := s.Run(context.Background()); !errors.As(err, &storm) {
		t.Fatalf("Run = %v, want *StormError", err)
	}
	if storm.LastCause != CauseWatchdogTrigger {
		t.Fatalf("cause = %q, want %q", storm.LastCause, CauseWatchdogTrigger)
	}
}

// TestAdoptionAcrossSupervisors: a supervisor dying mid-outage leaves the
// episode open; the next supervisor adopts and closes it — one open/close
// pair across two supervisor processes.
func TestAdoptionAcrossSupervisors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "episodes.jsonl")
	l1, err := episode.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.OpenEpisode("sh", "signal:killed", time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := l1.CloseFile(); err != nil { // first supervisor dies here
		t.Fatal(err)
	}

	l2, err := episode.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.CloseFile()
	cfg := testConfig("/bin/sh", "-c", "sleep 60")
	cfg.Name = "sh"
	cfg.Ledger = l2
	cfg.HealthProbe = func() error { return nil }
	cfg.ProbeEvery = 10 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	waitFor(t, "adopted episode closed", func() bool {
		eps := episodes(t, l2)
		return len(eps) == 1 && eps[0].Closed
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}
	e := episodes(t, l2)[0]
	if !e.Adopted || e.Resolution != episode.ResolutionHealthy || e.Cause != "signal:killed" {
		t.Fatalf("episode = %+v, want adopted healthy close", e)
	}
}

// TestChildEnvCarriesLedgerPath: supervised children learn the ledger path
// via WDSUPER_EPISODES so their /watchdog report can surface outage history.
func TestChildEnvCarriesLedgerPath(t *testing.T) {
	l := newLedger(t)
	var out bytes.Buffer
	cfg := testConfig("/bin/sh", "-c", "echo -n $WDSUPER_EPISODES")
	cfg.Ledger = l
	cfg.Stdout = &out
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != l.Path() {
		t.Fatalf("child saw WDSUPER_EPISODES=%q, want %q", got, l.Path())
	}
}
