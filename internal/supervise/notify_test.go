package supervise

import (
	"context"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/sdnotify"
	"gowatchdog/internal/supervise/episode"
)

// TestNotifyProbeLifecycle walks the feed/disarm contract end to end with the
// real client: no feed → unhealthy, feed → healthy, silence past the window →
// unhealthy, STOPPING → disarmed.
func TestNotifyProbeLifecycle(t *testing.T) {
	nl, err := ListenNotify(t.TempDir(), 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if err := nl.Probe(); err == nil {
		t.Fatal("probe should fail before any feed")
	}

	client := sdnotify.At(nl.Path())
	if err := client.Ready(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ready counted as liveness", func() bool { return nl.Probe() == nil })
	ready, _, _ := nl.State()
	if !ready {
		t.Fatal("READY=1 not recorded")
	}

	waitFor(t, "feed silence past window", func() bool { return nl.Probe() != nil })

	if err := client.Feed(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "feed restores health", func() bool { return nl.Probe() == nil })

	if err := client.Stopping(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stopping disarms", func() bool {
		_, stopping, _ := nl.State()
		return stopping
	})
	time.Sleep(100 * time.Millisecond) // well past the window
	if err := nl.Probe(); err != nil {
		t.Fatalf("probe after STOPPING = %v, want disarmed nil", err)
	}

	nl.Reset(0)
	if err := nl.Probe(); err == nil {
		t.Fatal("reset should rearm the probe for the next child")
	}
}

func TestNotifyTriggerDelivery(t *testing.T) {
	nl, err := ListenNotify(t.TempDir(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if err := sdnotify.At(nl.Path()).Trigger(); err != nil {
		t.Fatal(err)
	}
	select {
	case cause := <-nl.Trigger():
		if cause != CauseWatchdogTrigger {
			t.Fatalf("cause = %q", cause)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("trigger datagram not delivered")
	}
}

func TestNotifyEnv(t *testing.T) {
	nl, err := ListenNotify(t.TempDir(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	env := strings.Join(nl.Env(), "\n")
	if !strings.Contains(env, sdnotify.EnvSocket+"="+nl.Path()) {
		t.Fatalf("env missing socket: %s", env)
	}
	if !strings.Contains(env, sdnotify.EnvWatchdogUsec+"=3000000") {
		t.Fatalf("env missing usec: %s", env)
	}
}

// TestTriggerForcesRestart: a WATCHDOG=trigger datagram makes the supervisor
// kill and restart the child, recording the watchdog-trigger cause — the
// process-boundary rung of the escalation ladder.
func TestTriggerForcesRestart(t *testing.T) {
	nl, err := ListenNotify(t.TempDir(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	l := newLedger(t)
	cfg := testConfig("/bin/sh", "-c", "sleep 60")
	cfg.Ledger = l
	cfg.Env = nl.Env()
	cfg.HealthProbe = nl.Probe
	cfg.ProbeEvery = 10 * time.Millisecond
	cfg.Trigger = nl.Trigger()
	cfg.OnSpawn = nl.Reset
	spawns := countSpawns(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	waitFor(t, "first spawn", func() bool { return spawns.Load() == 1 })
	// The "daemon" feeds once, then its recovery gives up and fires a trigger.
	client := sdnotify.At(nl.Path())
	if err := client.Feed(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "feed observed", func() bool { return spawns.Load() == 1 && nl.Probe() == nil })
	if err := client.Trigger(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trigger restart", func() bool { return spawns.Load() == 2 })
	// The replacement feeds; the episode closes healthy.
	waitFor(t, "episode closed after replacement feeds", func() bool {
		if err := client.Feed(); err != nil {
			return false
		}
		eps := episodes(t, l)
		return len(eps) == 1 && eps[0].Closed
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}
	e := episodes(t, l)[0]
	if e.Cause != CauseWatchdogTrigger || e.Resolution != episode.ResolutionHealthy {
		t.Fatalf("episode = %+v", e)
	}
}
