package recovery

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// pumpSleeps advances the virtual clock through n retry-backoff sleeps of at
// most maxDelay each.
func pumpSleeps(v *clock.Virtual, n int, maxDelay time.Duration) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			v.BlockUntil(1)
			v.Advance(maxDelay)
		}
	}()
	return done
}

// TestRetrySucceedsWithoutEscalating is the headline retry scenario: a
// transiently-failing recovery action succeeds on its first retry, the whole
// cycle counts as a single attempt, and escalation never fires.
func TestRetrySucceedsWithoutEscalating(t *testing.T) {
	v := clock.NewVirtual()
	escalated := 0
	m := New(
		WithClock(v),
		WithMaxAttempts(2),
		WithRetry(3, time.Second),
		WithEscalation(ActionFunc{
			ActionName: "restart-process",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { escalated++; return nil },
		}),
	)
	calls := 0
	m.Register(ForChecker("flaky-repair", "kvs.", func(watchdog.Report) error {
		calls++
		if calls == 1 {
			return errors.New("lock held, try again")
		}
		return nil
	}))

	pump := pumpSleeps(v, 1, 8*time.Second)
	m.HandleAlarm(alarmFor("kvs.wal", watchdog.Site{}))
	m.Wait()
	<-pump

	if calls != 2 {
		t.Fatalf("action calls = %d, want 2", calls)
	}
	if escalated != 0 {
		t.Fatalf("escalated = %d, want 0", escalated)
	}
	ev := m.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Kind != EventRetried || ev[0].Attempt != 0 || ev[0].Err == nil {
		t.Fatalf("first event = %+v, want retried attempt 0", ev[0])
	}
	if ev[1].Kind != EventRecovered || ev[1].Attempt != 1 {
		t.Fatalf("second event = %+v, want recovered attempt 1", ev[1])
	}
	// The retry waited the backoff base on the virtual clock.
	if !ev[1].Time.After(ev[0].Time) {
		t.Fatalf("retry did not advance time: %v then %v", ev[0].Time, ev[1].Time)
	}
}

// TestRetryExhaustionCountsOnce: a cycle whose retries all fail logs retried
// events plus one final failure, and contributes exactly one escalation
// attempt.
func TestRetryExhaustionCountsOnce(t *testing.T) {
	v := clock.NewVirtual()
	m := New(WithClock(v), WithMaxAttempts(3), WithRetry(2, time.Second))
	boom := errors.New("still broken")
	m.Register(ForChecker("hopeless", "c.", func(watchdog.Report) error { return boom }))

	pump := pumpSleeps(v, 2, 8*time.Second)
	m.HandleAlarm(alarmFor("c.x", watchdog.Site{}))
	m.Wait()
	<-pump

	var kinds []EventKind
	for _, e := range m.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EventRetried, EventRetried, EventFailed}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	m.mu.Lock()
	attempts := len(m.attempts["c.x"])
	m.mu.Unlock()
	if attempts != 1 {
		t.Fatalf("escalation attempts = %d, want 1 (one cycle)", attempts)
	}
}

// TestHealthyResetClearsEscalation: sustained health after a recovery cycle
// clears the attempt history, so the next fault gets the cheap action again
// instead of inheriting stale escalation pressure.
func TestHealthyResetClearsEscalation(t *testing.T) {
	v := clock.NewVirtual()
	escalated := 0
	cheap := 0
	m := New(
		WithClock(v),
		WithMaxAttempts(1),
		WithWindow(time.Hour), // window alone will not save us
		WithHealthyReset(30*time.Second),
		WithEscalation(ActionFunc{
			ActionName: "restart",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { escalated++; return nil },
		}),
	)
	m.Register(ForChecker("cheap", "kvs.", func(watchdog.Report) error { cheap++; return nil }))

	m.HandleAlarm(alarmFor("kvs.wal", watchdog.Site{}))
	if cheap != 1 || escalated != 0 {
		t.Fatalf("after first alarm: cheap=%d escalated=%d", cheap, escalated)
	}

	// The checker stays healthy past the reset period; escalation state
	// clears. Reports from other checkers must not clear it.
	v.Advance(30 * time.Second)
	m.ObserveReport(watchdog.Report{Checker: "kvs.other", Status: watchdog.StatusHealthy})
	m.ObserveReport(watchdog.Report{Checker: "kvs.wal", Status: watchdog.StatusError})
	m.mu.Lock()
	kept := len(m.attempts["kvs.wal"])
	m.mu.Unlock()
	if kept != 1 {
		t.Fatalf("attempts cleared by wrong signal: %d", kept)
	}
	m.ObserveReport(watchdog.Report{Checker: "kvs.wal", Status: watchdog.StatusHealthy})

	m.HandleAlarm(alarmFor("kvs.wal", watchdog.Site{}))
	if cheap != 2 || escalated != 0 {
		t.Fatalf("after reset: cheap=%d escalated=%d, want cheap action again", cheap, escalated)
	}

	// Without the reset, the same second alarm would have escalated.
	m.HandleAlarm(alarmFor("kvs.wal", watchdog.Site{}))
	if escalated != 1 {
		t.Fatalf("escalated = %d, want 1 (no health signal in between)", escalated)
	}
}

// TestEventRingBoundsAndDropped: the event log is a fixed-size ring; old
// events drop, the drop count is reported, and order is preserved.
func TestEventRingBoundsAndDropped(t *testing.T) {
	v := clock.NewVirtual()
	m := New(WithClock(v))
	m.eventCap = 4
	for i := 0; i < 10; i++ {
		// Unmatched alarms: one event each, distinguishable by time.
		m.HandleAlarm(alarmFor("nobody.home", watchdog.Site{}))
		v.Advance(time.Second)
	}
	ev := m.Events()
	if len(ev) != 4 {
		t.Fatalf("retained events = %d, want 4", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if !ev[i].Time.After(ev[i-1].Time) {
			t.Fatalf("ring order broken: %v", ev)
		}
	}
	if got := m.DroppedEvents(); got != 6 {
		t.Fatalf("DroppedEvents = %d, want 6", got)
	}
}

// TestRetriedKindString covers the new event kind's rendering.
func TestRetriedKindString(t *testing.T) {
	if EventRetried.String() != "retried" {
		t.Fatalf("EventRetried = %q", EventRetried.String())
	}
}

// TestConcurrentHandleAlarmRace hammers HandleAlarm, ObserveReport, and the
// readers from many goroutines; run under -race via RACE_PKGS.
func TestConcurrentHandleAlarmRace(t *testing.T) {
	var fails atomic.Int64
	m := New(
		WithMaxAttempts(2),
		WithRetry(1, time.Microsecond),
		WithEscalation(ActionFunc{
			ActionName: "restart",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { return nil },
		}),
	)
	m.eventCap = 64
	m.Register(ForChecker("mixed", "c.", func(watchdog.Report) error {
		if fails.Add(1)%3 == 0 {
			return errors.New("transient")
		}
		return nil
	}))

	const goroutines = 8
	const alarmsPer = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checker := "c." + string(rune('a'+g%4))
			for i := 0; i < alarmsPer; i++ {
				m.HandleAlarm(alarmFor(checker, watchdog.Site{}))
				m.ObserveReport(watchdog.Report{Checker: checker, Status: watchdog.StatusHealthy})
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.Events()
				m.TotalEvents()
				m.DroppedEvents()
			}
		}
	}()
	wg.Wait()
	m.Wait()
	close(stop)
	readers.Wait()

	if len(m.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	if got := int64(len(m.Events())); got > 64 {
		t.Fatalf("ring exceeded cap: %d", got)
	}
}
