package wdruntime_test

import (
	"errors"
	"flag"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/recovery"
	"gowatchdog/internal/sdnotify"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

// notifySocket binds a fake supervisor-side NOTIFY_SOCKET and returns its
// path plus a channel of received datagrams.
func notifySocket(t *testing.T) (string, <-chan string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "notify.sock")
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	msgs := make(chan string, 256)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				close(msgs)
				return
			}
			msgs <- string(buf[:n])
		}
	}()
	return path, msgs
}

// drainMsgs empties pending datagrams and returns them.
func drainMsgs(msgs <-chan string) []string {
	var out []string
	for {
		select {
		case m := <-msgs:
			out = append(out, m)
		default:
			return out
		}
	}
}

// TestSdNotifyFeedGatedOnVerdict is the core feed contract: WATCHDOG=1 flows
// only while the intrinsic watchdog verdict is healthy. A daemon whose
// checkers are alarming goes silent and lets the external watchdog expire —
// the supervisor must restart on real failure, not on a live-but-failing
// process that keeps petting the timer.
func TestSdNotifyFeedGatedOnVerdict(t *testing.T) {
	path, msgs := notifySocket(t)
	var failing atomic.Bool
	rt, err := wdruntime.New(
		wdruntime.WithInterval(10*time.Millisecond),
		wdruntime.WithTimeout(200*time.Millisecond),
		wdruntime.WithNotifier(sdnotify.At(path)),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	rt.Driver().Register(watchdog.NewChecker("flaky", func(*watchdog.Context) error {
		if failing.Load() {
			return errors.New("wedged")
		}
		return nil
	}), watchdog.WithContext(readyContext()))

	if err := rt.Start(nil); err != nil {
		t.Fatalf("Start: %v", err)
	}

	// READY=1 first, then feeds while healthy.
	select {
	case m := <-msgs:
		if m != "READY=1" {
			t.Fatalf("first datagram = %q, want READY=1", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no READY=1 on Start")
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, m := range drainMsgs(msgs) {
			if m == "WATCHDOG=1" {
				return true
			}
		}
		return false
	}, "a WATCHDOG=1 feed while healthy")

	// Break the checker; once the verdict flips, feeds must stop.
	failing.Store(true)
	waitFor(t, 2*time.Second, func() bool { return !rt.Driver().Healthy() }, "unhealthy verdict")
	// A feed the loop decided on just before the flip may still be in the
	// socket: let it land, then discard it with the others sent before.
	time.Sleep(50 * time.Millisecond)
	drainMsgs(msgs)
	time.Sleep(100 * time.Millisecond)
	if fed := drainMsgs(msgs); len(fed) != 0 {
		t.Fatalf("got %v while unhealthy, want feed silence", fed)
	}

	// Health restored: feeds resume.
	failing.Store(false)
	waitFor(t, 2*time.Second, func() bool { return rt.Driver().Healthy() }, "healthy verdict")
	waitFor(t, 2*time.Second, func() bool {
		for _, m := range drainMsgs(msgs) {
			if m == "WATCHDOG=1" {
				return true
			}
		}
		return false
	}, "feeds resuming after recovery")

	// Drain disarms: STOPPING=1 is sent, and nothing follows it.
	if err := rt.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	deadline := time.After(2 * time.Second)
	var tail []string
collect:
	for {
		select {
		case m := <-msgs:
			tail = append(tail, m)
			if m == "STOPPING=1" {
				break collect
			}
		case <-deadline:
			t.Fatalf("no STOPPING=1 after Drain; saw %v", tail)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if late := drainMsgs(msgs); len(late) != 0 {
		t.Fatalf("datagrams after STOPPING=1: %v — the disarm must be final", late)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSdNotifyNoopWithoutSocket: -sd-notify stays on by default, so the
// whole path must be a silent no-op when no supervisor provided a socket.
func TestSdNotifyNoopWithoutSocket(t *testing.T) {
	t.Setenv(sdnotify.EnvSocket, "")
	rt, err := wdruntime.New(
		wdruntime.WithInterval(5*time.Millisecond),
		wdruntime.WithSdNotify(),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Driver().Register(watchdog.NewChecker("ok", func(*watchdog.Context) error { return nil }),
		watchdog.WithContext(readyContext()))
	if err := rt.Start(nil); err != nil {
		t.Fatalf("Start: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEscalationExitSendsTrigger: when the recovery ladder's exit rung fires,
// the WATCHDOG=trigger datagram goes out before the (stubbed) process exit —
// the supervisor learns the restart is self-diagnosed, immediately.
func TestEscalationExitSendsTrigger(t *testing.T) {
	path, msgs := notifySocket(t)
	exited := make(chan int, 1)
	mgr := recovery.New(
		recovery.WithMaxAttempts(1),
		recovery.WithEscalationExit(70),
		recovery.WithExitFunc(func(code int) { exited <- code }),
	)
	mgr.Register(recovery.ForChecker("noop", "kvs.", func(watchdog.Report) error { return nil }))
	rt, err := wdruntime.New(
		wdruntime.WithNotifier(sdnotify.At(path)),
		wdruntime.WithRecovery(mgr),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()

	alarm := watchdog.Alarm{Report: watchdog.Report{
		Checker: "kvs.flusher", Status: watchdog.StatusError,
	}}
	mgr.HandleAlarm(alarm) // cheap attempt
	mgr.HandleAlarm(alarm) // threshold crossed, no escalation action → exit rung
	select {
	case code := <-exited:
		if code != 70 {
			t.Fatalf("exit code = %d, want 70", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("exit rung did not fire")
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, m := range drainMsgs(msgs) {
			if m == "WATCHDOG=trigger" {
				return true
			}
		}
		return false
	}, "WATCHDOG=trigger datagram")
}

// TestDrainCloseIdempotentConcurrent: racing Drains and Closes all settle on
// the first call's verdict — the lifecycle must tolerate a signal handler, a
// deferred Close, and a supervisor-driven shutdown all firing at once.
func TestDrainCloseIdempotentConcurrent(t *testing.T) {
	path, _ := notifySocket(t)
	rt, err := wdruntime.New(
		wdruntime.WithInterval(5*time.Millisecond),
		wdruntime.WithNotifier(sdnotify.At(path)),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Driver().Register(watchdog.NewChecker("ok", func(*watchdog.Context) error { return nil }),
		watchdog.WithContext(readyContext()))
	if err := rt.Start(nil); err != nil {
		t.Fatalf("Start: %v", err)
	}

	const n = 8
	drainErrs := make(chan error, n)
	closeErrs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() { <-start; drainErrs <- rt.Drain() }()
		go func() { <-start; closeErrs <- rt.Close() }()
	}
	close(start)
	for i := 0; i < n; i++ {
		if err := <-drainErrs; err != nil {
			t.Fatalf("Drain[%d] = %v", i, err)
		}
		if err := <-closeErrs; err != nil {
			t.Fatalf("Close[%d] = %v", i, err)
		}
	}
	// Parity: repeated calls after the fact return the settled verdicts.
	if err := rt.Drain(); err != nil {
		t.Fatalf("late Drain = %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("late Close = %v", err)
	}
}

// TestSdNotifyFlagDefaults pins the new flag surface: -sd-notify defaults on
// (safe: no socket, no datagrams) and -episodes defaults to the path wdsuper
// hands its children via WDSUPER_EPISODES.
func TestSdNotifyFlagDefaults(t *testing.T) {
	t.Setenv("WDSUPER_EPISODES", "/tmp/led.jsonl")
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	f := wdruntime.BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.SdNotify {
		t.Fatal("-sd-notify should default to true")
	}
	if f.Episodes != "/tmp/led.jsonl" {
		t.Fatalf("-episodes default = %q, want WDSUPER_EPISODES value", f.Episodes)
	}
	rt, err := wdruntime.New(f.Options()...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	cfg := rt.Config()
	if !cfg.SdNotify || cfg.EpisodePath != "/tmp/led.jsonl" {
		t.Fatalf("config = SdNotify %v EpisodePath %q", cfg.SdNotify, cfg.EpisodePath)
	}
	if !strings.Contains(fs.Lookup("episodes").Usage, "WDSUPER_EPISODES") {
		t.Fatal("-episodes help should mention WDSUPER_EPISODES")
	}
}
