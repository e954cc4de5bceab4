package watchdog

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/clock"
)

// noJitter disables backoff jitter so transitions land on exact virtual
// timestamps.
func noJitter(threshold int, base time.Duration) BreakerConfig {
	return BreakerConfig{Threshold: threshold, BackoffBase: base, JitterFrac: -1}
}

// TestBreakerTripOpenProbeClose walks the full state machine: K consecutive
// errors trip the breaker, executions are skipped while open, the first tick
// past the backoff runs a single probe, and a successful probe closes the
// breaker again.
func TestBreakerTripOpenProbeClose(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithBreaker(noJitter(3, 10*time.Second)))
	fail := true
	d.Register(NewChecker("flaky", func(*Context) error {
		if fail {
			return errors.New("boom")
		}
		return nil
	}))
	d.Factory().Context("flaky").MarkReady()

	for i := 0; i < 3; i++ {
		rep, _ := d.CheckNow("flaky")
		if rep.Status != StatusError {
			t.Fatalf("run %d status = %v, want error", i, rep.Status)
		}
	}
	st := d.State()[0]
	if !st.BreakerEnabled || st.Breaker != BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("after threshold: breaker = %+v", st)
	}
	want := v.Now().Add(10 * time.Second)
	if !st.BreakerNext.Equal(want) {
		t.Fatalf("next eligible = %v, want %v", st.BreakerNext, want)
	}

	// While open, executions are skipped without running the checker.
	rep, _ := d.CheckNow("flaky")
	if rep.Status != StatusSkipped {
		t.Fatalf("open status = %v, want skipped", rep.Status)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "breaker open") {
		t.Fatalf("skip err = %v", rep.Err)
	}
	if got := d.BreakerSkips(); got != 1 {
		t.Fatalf("BreakerSkips = %d, want 1", got)
	}
	if st, _ := d.CheckerStats("flaky"); st.Abnormal != 3 {
		t.Fatalf("skips counted as abnormal: %+v", st)
	}

	// A failed probe reopens with a doubled backoff.
	v.Advance(10 * time.Second)
	rep, _ = d.CheckNow("flaky")
	if rep.Status != StatusError {
		t.Fatalf("probe status = %v, want error (probe executed)", rep.Status)
	}
	st = d.State()[0]
	if st.Breaker != BreakerOpen || st.BreakerTrips != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	if want := v.Now().Add(20 * time.Second); !st.BreakerNext.Equal(want) {
		t.Fatalf("backoff did not double: next = %v, want %v", st.BreakerNext, want)
	}

	// A successful probe closes the breaker and normal cadence resumes.
	fail = false
	v.Advance(20 * time.Second)
	rep, _ = d.CheckNow("flaky")
	if rep.Status != StatusHealthy {
		t.Fatalf("recovered probe status = %v", rep.Status)
	}
	st = d.State()[0]
	if st.Breaker != BreakerClosed {
		t.Fatalf("after successful probe: %+v", st)
	}
	if rep, _ := d.CheckNow("flaky"); rep.Status != StatusHealthy {
		t.Fatalf("post-close status = %v", rep.Status)
	}

	// A fresh failure streak must again take Threshold runs to trip.
	fail = true
	for i := 0; i < 2; i++ {
		d.CheckNow("flaky")
	}
	if st := d.State()[0]; st.Breaker != BreakerClosed {
		t.Fatalf("tripped before threshold after close: %+v", st)
	}
	d.CheckNow("flaky")
	if st := d.State()[0]; st.Breaker != BreakerOpen || st.BreakerTrips != 3 {
		t.Fatalf("did not re-trip at threshold: %+v", st)
	}
	// The close reset the trip streak, so the backoff is back to base.
	if want := v.Now().Add(10 * time.Second); !d.State()[0].BreakerNext.Equal(want) {
		t.Fatalf("backoff after close = %v, want %v", d.State()[0].BreakerNext, want)
	}
}

// TestBreakerBackoffCapAndJitter checks the exponential cap and that jitter
// stays inside [backoff, backoff*(1+frac)).
func TestBreakerBackoffCapAndJitter(t *testing.T) {
	cfg := BreakerConfig{Threshold: 1, BackoffBase: time.Second, BackoffMax: 8 * time.Second}.withDefaults(time.Second)
	wants := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second}
	for i, want := range wants {
		if got := cfg.backoff(i + 1); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	// Defaults: base = 2×interval, max = 64×base, jitter 0.2.
	def := BreakerConfig{Threshold: 1}.withDefaults(time.Second)
	if def.BackoffBase != 2*time.Second || def.BackoffMax != 128*time.Second || def.JitterFrac != 0.2 {
		t.Fatalf("defaults = %+v", def)
	}

	v := clock.NewVirtual()
	d := New(WithClock(v), WithJitterSeed(42),
		WithBreaker(BreakerConfig{Threshold: 1, BackoffBase: 10 * time.Second, JitterFrac: 0.5}))
	d.Register(NewChecker("j", func(*Context) error { return errors.New("x") }))
	d.Factory().Context("j").MarkReady()
	d.CheckNow("j")
	st := d.State()[0]
	delay := st.BreakerNext.Sub(v.Now())
	if delay < 10*time.Second || delay >= 15*time.Second {
		t.Fatalf("jittered backoff %v outside [10s,15s)", delay)
	}
}

// TestBreakerCountsHangs: stuck outcomes count toward the trip threshold, and
// an open breaker suppresses the per-tick stuck re-reports too.
func TestBreakerCountsHangs(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithTimeout(5*time.Second), WithBreaker(noJitter(1, time.Minute)))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	d.Register(NewChecker("hang", func(*Context) error {
		entered <- struct{}{}
		<-release
		return nil
	}))
	d.Factory().Context("hang").MarkReady()

	done := make(chan Report, 1)
	go func() {
		rep, _ := d.CheckNow("hang")
		done <- rep
	}()
	<-entered
	v.BlockUntil(1)
	v.Advance(5 * time.Second)
	if rep := <-done; rep.Status != StatusStuck {
		t.Fatalf("status = %v, want stuck", rep.Status)
	}
	if st := d.State()[0]; st.Breaker != BreakerOpen {
		t.Fatalf("breaker = %v, want open after hang", st.Breaker)
	}
	// The still-blocked execution would re-report stuck every tick; the open
	// breaker turns that into skips.
	if rep, _ := d.CheckNow("hang"); rep.Status != StatusSkipped {
		t.Fatalf("open status = %v, want skipped", rep.Status)
	}
	close(release)
}

// TestHangBudgetDegradesGracefully: with a budget of 1 leaked goroutine, a
// second hang-prone checker is skipped with a budget-exhausted report instead
// of leaking a second goroutine, and reaping restores execution.
func TestHangBudgetDegradesGracefully(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithTimeout(5*time.Second), WithHangBudget(1))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	d.Register(NewChecker("hog", func(*Context) error {
		entered <- struct{}{}
		<-release
		return nil
	}))
	d.Register(NewChecker("bystander", func(*Context) error { return nil }))
	d.Factory().Context("hog").MarkReady()
	d.Factory().Context("bystander").MarkReady()

	done := make(chan Report, 1)
	go func() {
		rep, _ := d.CheckNow("hog")
		done <- rep
	}()
	<-entered
	v.BlockUntil(1)
	v.Advance(5 * time.Second)
	if rep := <-done; rep.Status != StatusStuck {
		t.Fatalf("status = %v, want stuck", rep.Status)
	}
	if got := d.LeakedHung(); got != 1 {
		t.Fatalf("LeakedHung = %d, want 1", got)
	}

	// Budget exhausted: even a healthy checker is not started.
	rep, _ := d.CheckNow("bystander")
	if rep.Status != StatusSkipped {
		t.Fatalf("bystander status = %v, want skipped", rep.Status)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "hang budget exhausted") {
		t.Fatalf("skip err = %v", rep.Err)
	}
	if got := d.BudgetSkips(); got != 1 {
		t.Fatalf("BudgetSkips = %d, want 1", got)
	}

	// Releasing the hung execution reaps the goroutine and restores service.
	close(release)
	waitFor(t, func() bool { return d.LeakedHung() == 0 })
	if rep, _ := d.CheckNow("bystander"); rep.Status != StatusHealthy {
		t.Fatalf("post-reap status = %v", rep.Status)
	}
}

// waitFor polls cond with a real-time bound; used only to wait for reaper
// goroutines, which are not clock-driven.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAlarmDampingCollapsesStorm: with damping configured, the repeated
// alarms of a flapping checker collapse into the first one per window, and
// the next escaped alarm carries the suppressed count.
func TestAlarmDampingCollapsesStorm(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithAlarmDamping(time.Minute))
	fail := true
	d.Register(NewChecker("flap", func(*Context) error {
		if fail {
			return errors.New("boom")
		}
		return nil
	}))
	d.Factory().Context("flap").MarkReady()
	var alarms []Alarm
	d.OnAlarm(func(a Alarm) { alarms = append(alarms, a) })

	// Flapping: error, healthy, error, ... Each error is a fresh streak
	// crossing threshold 1, so undamped this would be one alarm per error.
	for i := 0; i < 8; i++ {
		d.CheckNow("flap")
		fail = !fail
		v.Advance(time.Second)
	}
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1 (damped)", len(alarms))
	}
	if d.AlarmsSuppressed() != 3 {
		t.Fatalf("suppressed = %d, want 3", d.AlarmsSuppressed())
	}
	if st := d.State()[0]; st.Flaps != 3 {
		t.Fatalf("checker flaps = %d, want 3", st.Flaps)
	}

	// Past the window, the next alarm escapes and reports the flap count.
	v.Advance(time.Minute)
	fail = true
	d.CheckNow("flap")
	if len(alarms) != 2 {
		t.Fatalf("alarms after window = %d, want 2", len(alarms))
	}
	if alarms[1].Flaps != 3 {
		t.Fatalf("escaped alarm flaps = %d, want 3", alarms[1].Flaps)
	}
}

// TestAlarmGateStandalone exercises the gate API outside a driver.
func TestAlarmGateStandalone(t *testing.T) {
	v := clock.NewVirtual()
	g := NewAlarmGate(v, 10*time.Second)
	mk := func(checker string, s Status) Alarm {
		return Alarm{Report: Report{Checker: checker, Status: s, Time: v.Now()}}
	}

	if _, ok := g.Admit(mk("a", StatusError)); !ok {
		t.Fatal("first alarm suppressed")
	}
	for i := 0; i < 4; i++ {
		if _, ok := g.Admit(mk("a", StatusError)); ok {
			t.Fatalf("duplicate %d escaped inside window", i)
		}
	}
	// A different status is a different alarm family.
	if _, ok := g.Admit(mk("a", StatusStuck)); !ok {
		t.Fatal("distinct-status alarm suppressed")
	}
	// A different checker too.
	if _, ok := g.Admit(mk("b", StatusError)); !ok {
		t.Fatal("distinct-checker alarm suppressed")
	}
	if g.Suppressed() != 4 {
		t.Fatalf("Suppressed = %d, want 4", g.Suppressed())
	}
	v.Advance(10 * time.Second)
	out, ok := g.Admit(mk("a", StatusError))
	if !ok || out.Flaps != 4 {
		t.Fatalf("post-window alarm: ok=%v flaps=%d, want ok with 4", ok, out.Flaps)
	}

	var forwarded int
	fn := g.Wrap(func(Alarm) { forwarded++ })
	fn(mk("a", StatusError)) // inside fresh window: suppressed
	v.Advance(10 * time.Second)
	fn(mk("a", StatusError))
	if forwarded != 1 {
		t.Fatalf("Wrap forwarded %d, want 1", forwarded)
	}
}

// TestBreakerStateString pins the state names used by wdstat and /watchdog.
func TestBreakerStateString(t *testing.T) {
	wants := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerHalfOpen: "half-open",
		BreakerOpen:     "open",
		BreakerState(9): "BreakerState(9)",
	}
	for s, want := range wants {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// TestSkippedStatusSemantics pins the new status's classification: not
// abnormal, round-trips as "skipped", and leaves alarm streaks untouched.
func TestSkippedStatusSemantics(t *testing.T) {
	if StatusSkipped.Abnormal() {
		t.Fatal("skipped counts as abnormal")
	}
	if StatusSkipped.String() != "skipped" {
		t.Fatalf("String = %q", StatusSkipped.String())
	}
	s, err := ParseStatus("skipped")
	if err != nil || s != StatusSkipped {
		t.Fatalf("ParseStatus(skipped) = %v, %v", s, err)
	}

	// An open breaker must not reset the abnormal streak: the fault is still
	// there, the driver just stopped burning goroutines on it.
	v := clock.NewVirtual()
	d := New(WithClock(v), WithBreaker(noJitter(2, time.Hour)))
	d.Register(NewChecker("c", func(*Context) error { return errors.New("x") }), Threshold(10))
	d.Factory().Context("c").MarkReady()
	d.CheckNow("c")
	d.CheckNow("c") // trips
	d.CheckNow("c") // skipped
	if st, _ := d.CheckerStats("c"); st.Consecutive != 2 {
		t.Fatalf("consecutive = %d, want 2 (skip left streak alone)", st.Consecutive)
	}
}
