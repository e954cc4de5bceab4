package watchdog

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/clock"
)

func healthyChecker(name string) Checker {
	return NewChecker(name, func(*Context) error { return nil })
}

func TestCheckNowHealthy(t *testing.T) {
	d := New()
	d.Register(healthyChecker("ok"))
	d.Factory().Context("ok").MarkReady()
	rep, err := d.CheckNow("ok")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusHealthy {
		t.Fatalf("status = %v", rep.Status)
	}
	if !d.Healthy() {
		t.Fatal("driver not healthy after healthy report")
	}
}

func TestCheckNowUnknownChecker(t *testing.T) {
	d := New()
	if _, err := d.CheckNow("ghost"); err == nil {
		t.Fatal("CheckNow on unknown checker returned nil error")
	}
}

func TestContextGatingSkipsChecker(t *testing.T) {
	d := New()
	ran := false
	d.Register(NewChecker("gated", func(*Context) error { ran = true; return nil }))
	rep, _ := d.CheckNow("gated")
	if rep.Status != StatusContextPending {
		t.Fatalf("status = %v, want context-pending", rep.Status)
	}
	if ran {
		t.Fatal("checker ran with unready context")
	}
	if !d.Healthy() {
		t.Fatal("context-pending should not mark driver unhealthy")
	}
	// Once the hook fires, the checker runs.
	d.Factory().Context("gated").Put("state", "ready")
	rep, _ = d.CheckNow("gated")
	if rep.Status != StatusHealthy || !ran {
		t.Fatalf("status = %v, ran = %v", rep.Status, ran)
	}
}

func TestErrorClassificationWithSite(t *testing.T) {
	d := New()
	site := Site{Function: "kvs.flush", Op: "wal.Append", File: "f.go", Line: 10}
	d.Register(NewChecker("err", func(ctx *Context) error {
		return Op(ctx, site, func() error { return errors.New("disk fault") })
	}))
	d.Factory().Context("err").MarkReady()
	rep, _ := d.CheckNow("err")
	if rep.Status != StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	if rep.Site != site {
		t.Fatalf("site = %v, want %v", rep.Site, site)
	}
	if rep.Err == nil {
		t.Fatal("error report without error")
	}
	if d.Healthy() {
		t.Fatal("driver healthy after error report")
	}
}

func TestPanicInsideOpClassifiedAsCrash(t *testing.T) {
	d := New()
	site := Site{Function: "f", Op: "boom"}
	d.Register(NewChecker("crash", func(ctx *Context) error {
		return Op(ctx, site, func() error { panic("kaput") })
	}))
	d.Factory().Context("crash").MarkReady()
	rep, _ := d.CheckNow("crash")
	if rep.Status != StatusCrashed {
		t.Fatalf("status = %v, want crashed", rep.Status)
	}
	if rep.Site != site {
		t.Fatalf("site = %v", rep.Site)
	}
}

func TestPanicOutsideOpIsConfined(t *testing.T) {
	d := New()
	d.Register(NewChecker("wild", func(*Context) error { panic("untamed") }))
	d.Factory().Context("wild").MarkReady()
	rep, _ := d.CheckNow("wild")
	if rep.Status != StatusCrashed {
		t.Fatalf("status = %v, want crashed", rep.Status)
	}
}

func TestSlowClassification(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v))
	site := Site{Function: "f", Op: "slowop"}
	d.Register(NewChecker("slow", func(ctx *Context) error {
		fakeNow := time.Unix(0, 0)
		step := func() time.Time {
			fakeNow = fakeNow.Add(500 * time.Millisecond)
			return fakeNow
		}
		return OpTimed(ctx, site, 100*time.Millisecond, step, func() error { return nil })
	}))
	d.Factory().Context("slow").MarkReady()
	rep, _ := d.CheckNow("slow")
	if rep.Status != StatusSlow {
		t.Fatalf("status = %v, want slow", rep.Status)
	}
	if rep.Site != site {
		t.Fatalf("site = %v", rep.Site)
	}
}

func TestStuckCheckerDetectedWithPinpoint(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithTimeout(6*time.Second))
	site := Site{Function: "coord.sync", Op: "net.Write", File: "sync.go", Line: 7}
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	d.Register(NewChecker("hang", func(ctx *Context) error {
		return Op(ctx, site, func() error { entered <- struct{}{}; <-release; return nil })
	}))
	d.Factory().Context("hang").MarkReady()

	type result struct{ rep Report }
	done := make(chan result, 1)
	go func() {
		rep, _ := d.CheckNow("hang")
		done <- result{rep}
	}()
	// Wait until the checker is inside the vulnerable op, then fire the
	// timeout timer (the only clock waiter; the checker blocks on a channel).
	<-entered
	v.BlockUntil(1)
	v.Advance(6 * time.Second)
	res := <-done
	if res.rep.Status != StatusStuck {
		t.Fatalf("status = %v, want stuck", res.rep.Status)
	}
	if res.rep.Site != site {
		t.Fatalf("pinpointed site = %v, want %v", res.rep.Site, site)
	}

	// While the execution is still blocked, another tick re-reports stuck
	// without starting a second execution.
	rep2, _ := d.CheckNow("hang")
	if rep2.Status != StatusStuck {
		t.Fatalf("second status = %v, want stuck", rep2.Status)
	}

	// Releasing the hang lets the reaper clear inFlight; a later run is
	// healthy again.
	close(release)
	deadline := time.Now().Add(time.Second)
	for {
		rep3, _ := d.CheckNow("hang")
		if rep3.Status == StatusHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checker never recovered: %v", rep3)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAlarmThresholdAndReset(t *testing.T) {
	d := New()
	fail := true
	d.Register(NewChecker("flaky", func(*Context) error {
		if fail {
			return errors.New("bad")
		}
		return nil
	}), Threshold(3))
	d.Factory().Context("flaky").MarkReady()

	var mu sync.Mutex
	var alarms []Alarm
	d.OnAlarm(func(a Alarm) { mu.Lock(); alarms = append(alarms, a); mu.Unlock() })

	for i := 0; i < 2; i++ {
		d.CheckNow("flaky")
	}
	mu.Lock()
	n := len(alarms)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("alarm before threshold: %d", n)
	}
	d.CheckNow("flaky") // third consecutive abnormal crosses threshold
	mu.Lock()
	n = len(alarms)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("alarms = %d, want 1", n)
	}
	// Further abnormal reports do not re-alarm until a healthy reset.
	d.CheckNow("flaky")
	mu.Lock()
	n = len(alarms)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("alarm storm: %d", n)
	}
	// Healthy report resets the streak; threshold must be crossed again.
	fail = false
	d.CheckNow("flaky")
	fail = true
	d.CheckNow("flaky")
	d.CheckNow("flaky")
	mu.Lock()
	n = len(alarms)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("alarm fired before re-crossing threshold: %d", n)
	}
	d.CheckNow("flaky")
	mu.Lock()
	n = len(alarms)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("alarms = %d, want 2", n)
	}
}

// TestAlarmValidation is the §5.1 validation chain (E9): a mimic alarm is
// assessed by a validator (in production, a probe of client-visible impact),
// which either confirms it or suppresses it as having no impact.
func TestAlarmValidation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		impactful bool
	}{
		{"confirming", true},
		{"suppressing", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New()
			d.Register(NewChecker("mimic", func(*Context) error { return errors.New("x") }),
				ValidateWith(func(Report) bool { return tc.impactful }))
			d.Factory().Context("mimic").MarkReady()
			var got *Alarm
			d.OnAlarm(func(a Alarm) { got = &a })
			d.CheckNow("mimic")
			if got == nil {
				t.Fatal("no alarm")
			}
			if got.Validated == nil || *got.Validated != tc.impactful {
				t.Fatalf("Validated = %v, want %v", got.Validated, tc.impactful)
			}
		})
	}
}

func TestOnReportSeesEveryExecution(t *testing.T) {
	d := New()
	d.Register(healthyChecker("a"))
	d.Register(NewChecker("b", func(*Context) error { return errors.New("x") }))
	d.Factory().Context("a").MarkReady()
	d.Factory().Context("b").MarkReady()
	var mu sync.Mutex
	var seen []string
	d.OnReport(func(r Report) {
		mu.Lock()
		seen = append(seen, r.Checker+":"+r.Status.String())
		mu.Unlock()
	})
	d.CheckAll()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "a:healthy" || seen[1] != "b:error" {
		t.Fatalf("seen = %v", seen)
	}
}

func TestScheduledExecutionWithVirtualClock(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithInterval(time.Second), WithTimeout(10*time.Second))
	var mu sync.Mutex
	runs := 0
	d.Register(NewChecker("tick", func(*Context) error {
		mu.Lock()
		runs++
		mu.Unlock()
		return nil
	}))
	d.Factory().Context("tick").MarkReady()
	reports := make(chan Report, 16)
	d.OnReport(func(r Report) { reports <- r })
	d.Start()
	defer d.Stop()
	v.BlockUntil(1) // the scheduling ticker
	for i := 0; i < 3; i++ {
		v.Advance(time.Second)
		select {
		case <-reports:
		case <-time.After(2 * time.Second):
			t.Fatalf("no report after tick %d", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
}

func TestStopHaltsScheduling(t *testing.T) {
	v := clock.NewVirtual()
	d := New(WithClock(v), WithInterval(time.Second))
	d.Register(healthyChecker("x"))
	d.Factory().Context("x").MarkReady()
	d.Start()
	v.BlockUntil(1)
	d.Stop()
	// After Stop, ticks do nothing.
	v.Advance(10 * time.Second)
	if st := stateOf(t, d, "x"); st.Runs > 10 {
		t.Fatalf("runs after stop = %d", st.Runs)
	}
	// Stop twice is fine; Start again works.
	d.Stop()
}

func TestRegisterDuplicatePanics(t *testing.T) {
	d := New()
	d.Register(healthyChecker("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	d.Register(healthyChecker("dup"))
}

func TestRegisterAfterStartPanics(t *testing.T) {
	d := New()
	d.Register(healthyChecker("x"))
	d.Factory().Context("x").MarkReady()
	d.Start()
	defer d.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Start did not panic")
		}
	}()
	d.Register(healthyChecker("y"))
}

func TestPauseResume(t *testing.T) {
	d := New()
	d.Register(NewChecker("maint", func(*Context) error { return errors.New("x") }))
	d.Factory().Context("maint").MarkReady()
	var alarms int
	d.OnAlarm(func(Alarm) { alarms++ })

	// Build up an abnormal streak, then pause mid-incident.
	d.CheckNow("maint")
	if alarms != 1 {
		t.Fatalf("alarms = %d", alarms)
	}
	if !d.Pause("maint") {
		t.Fatal("Pause failed")
	}
	if !d.Paused("maint") {
		t.Fatal("Paused = false")
	}
	// Paused executions are skips: no checker run, no alarm.
	rep, _ := d.CheckNow("maint")
	if rep.Status != StatusContextPending {
		t.Fatalf("paused run = %v", rep.Status)
	}
	if alarms != 1 {
		t.Fatalf("alarm during pause: %d", alarms)
	}
	// Resume: the streak restarts from zero, so the next abnormal report
	// re-alarms (the latch was cleared on Pause).
	if !d.Resume("maint") {
		t.Fatal("Resume failed")
	}
	d.CheckNow("maint")
	if alarms != 2 {
		t.Fatalf("alarms after resume = %d", alarms)
	}
	if d.Pause("ghost") || d.Resume("ghost") || d.Paused("ghost") {
		t.Fatal("unknown checker pause/resume succeeded")
	}
}

// stateOf returns the named checker's entry in d.State().
func stateOf(t *testing.T, d *Driver, name string) CheckerState {
	t.Helper()
	for _, cs := range d.State() {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("no checker %q in State()", name)
	return CheckerState{}
}

func TestCheckerStatsAndLatest(t *testing.T) {
	d := New()
	d.Register(NewChecker("s", func(*Context) error { return errors.New("x") }))
	d.Factory().Context("s").MarkReady()
	if stateOf(t, d, "s").HasLatest {
		t.Fatal("Latest before any run")
	}
	d.CheckNow("s")
	d.CheckNow("s")
	st := stateOf(t, d, "s")
	if st.Runs != 2 || st.Abnormal != 2 || st.Consecutive != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.HasLatest || st.Latest.Status != StatusError {
		t.Fatalf("latest = %v, %v", st.Latest, st.HasLatest)
	}
	if n := len(d.State()); n != 1 {
		t.Fatalf("State has %d checkers, want 1 (no stats for unknown checkers)", n)
	}
}

func TestCheckersSorted(t *testing.T) {
	d := New()
	d.Register(healthyChecker("zeta"))
	d.Register(healthyChecker("alpha"))
	got := d.Checkers()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Checkers = %v", got)
	}
}

func TestWithContextOption(t *testing.T) {
	d := New()
	ctx := NewContext()
	ctx.MarkReady()
	d.Register(healthyChecker("custom"), WithContext(ctx))
	rep, _ := d.CheckNow("custom")
	if rep.Status != StatusHealthy {
		t.Fatalf("status = %v", rep.Status)
	}
}

func TestStatusStringAndAbnormal(t *testing.T) {
	cases := map[Status]struct {
		s  string
		ab bool
	}{
		StatusHealthy:        {"healthy", false},
		StatusContextPending: {"context-pending", false},
		StatusError:          {"error", true},
		StatusStuck:          {"stuck", true},
		StatusCrashed:        {"crashed", true},
		StatusSlow:           {"slow", true},
		Status(42):           {"Status(42)", false},
	}
	for st, want := range cases {
		if st.String() != want.s {
			t.Errorf("String(%d) = %q", int(st), st.String())
		}
		if st.Abnormal() != want.ab {
			t.Errorf("Abnormal(%v) = %v", st, st.Abnormal())
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{Checker: "c", Status: StatusError, Err: errors.New("bad"),
		Site: Site{Op: "write"}}
	want := "[c] error: bad at write"
	if r.String() != want {
		t.Fatalf("String = %q, want %q", r.String(), want)
	}
}

func TestOpErrorUnwrap(t *testing.T) {
	inner := errors.New("inner")
	oe := &OpError{Site: Site{Op: "w"}, Err: inner}
	if !errors.Is(oe, inner) {
		t.Fatal("OpError does not unwrap")
	}
}
