package watchdog

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// recordingObserver captures every observer callback for assertions.
type recordingObserver struct {
	mu      sync.Mutex
	reports []observedReport
	alarms  []Alarm
}

type observedReport struct {
	rep   Report
	prev  Status
	first bool
}

func (o *recordingObserver) ObserveReport(rep Report, prev Status, first bool) {
	o.mu.Lock()
	o.reports = append(o.reports, observedReport{rep, prev, first})
	o.mu.Unlock()
}

func (o *recordingObserver) ObserveAlarm(a Alarm) {
	o.mu.Lock()
	o.alarms = append(o.alarms, a)
	o.mu.Unlock()
}

// TestObserverSeesTransitions drives a checker healthy → error → healthy and
// asserts the observer sees every execution with the correct previous status
// and first-report marker, plus the alarm.
func TestObserverSeesTransitions(t *testing.T) {
	obs := &recordingObserver{}
	d := New()
	d.SetObserver(obs)
	var fail bool
	d.Register(NewChecker("t", func(*Context) error {
		if fail {
			return errors.New("injected")
		}
		return nil
	}))
	d.Factory().Context("t").MarkReady()

	mustCheck := func() {
		t.Helper()
		if _, err := d.CheckNow("t"); err != nil {
			t.Fatal(err)
		}
	}
	mustCheck()
	fail = true
	mustCheck()
	fail = false
	mustCheck()

	if len(obs.reports) != 3 {
		t.Fatalf("observer saw %d reports, want 3", len(obs.reports))
	}
	want := []struct {
		status Status
		prev   Status
		first  bool
	}{
		{StatusHealthy, StatusHealthy, true},
		{StatusError, StatusHealthy, false},
		{StatusHealthy, StatusError, false},
	}
	for i, w := range want {
		got := obs.reports[i]
		if got.rep.Status != w.status || got.prev != w.prev || got.first != w.first {
			t.Errorf("report %d = (%v, prev %v, first %v), want (%v, %v, %v)",
				i, got.rep.Status, got.prev, got.first, w.status, w.prev, w.first)
		}
	}
	if len(obs.alarms) != 1 {
		t.Fatalf("observer saw %d alarms, want 1", len(obs.alarms))
	}
	if obs.alarms[0].Report.Status != StatusError {
		t.Errorf("alarm status = %v", obs.alarms[0].Report.Status)
	}
}

func TestSetObserverAfterStartPanics(t *testing.T) {
	d := New(WithInterval(time.Hour))
	d.Register(NewChecker("p", func(*Context) error { return nil }))
	d.Start()
	defer d.Stop()
	defer func() {
		if recover() == nil {
			t.Error("SetObserver after Start did not panic")
		}
	}()
	d.SetObserver(&recordingObserver{})
}

// TestDriverState covers the State snapshot: policy fields, counters, latest
// report, and context synchronization metadata.
func TestDriverState(t *testing.T) {
	d := New(WithInterval(2*time.Second), WithTimeout(9*time.Second))
	d.Register(NewChecker("a", func(*Context) error { return nil }), Threshold(4))
	d.Register(NewChecker("b", func(*Context) error { return errors.New("bad") }),
		Every(time.Second))

	before := time.Now()
	d.Factory().Context("a").Put("k", "v")
	d.Factory().Context("b").MarkReady()
	if _, err := d.CheckNow("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckNow("b"); err != nil {
		t.Fatal(err)
	}

	states := d.State()
	if len(states) != 2 || states[0].Name != "a" || states[1].Name != "b" {
		t.Fatalf("State() = %+v", states)
	}
	a, b := states[0], states[1]
	if a.Interval != 2*time.Second || a.Timeout != 9*time.Second || a.Threshold != 4 {
		t.Errorf("policy not captured: %+v", a)
	}
	if b.Interval != time.Second {
		t.Errorf("per-checker interval not captured: %+v", b)
	}
	if a.Runs != 1 || a.Abnormal != 0 || !a.HasLatest || a.Latest.Status != StatusHealthy {
		t.Errorf("a counters wrong: %+v", a)
	}
	if b.Runs != 1 || b.Abnormal != 1 || b.Consecutive != 1 || b.Latest.Status != StatusError {
		t.Errorf("b counters wrong: %+v", b)
	}
	if !a.ContextReady || a.ContextVersion != 1 {
		t.Errorf("a context meta wrong: %+v", a)
	}
	if a.ContextSync.Before(before) || time.Since(a.ContextSync) > time.Minute {
		t.Errorf("a sync timestamp implausible: %v", a.ContextSync)
	}
}

// TestContextLastSync pins the LastSync contract on a bare context.
func TestContextLastSync(t *testing.T) {
	c := NewContext()
	if _, ok := c.LastSync(); ok {
		t.Error("fresh context reports a sync time")
	}
	c.Put("k", 1)
	at, ok := c.LastSync()
	if !ok || at.IsZero() {
		t.Errorf("LastSync after Put = %v, %v", at, ok)
	}
	c.MarkReady()
	if again, ok := c.LastSync(); !ok || again.Before(at) {
		t.Errorf("LastSync after MarkReady = %v, %v; want at or after %v", again, ok, at)
	}
}
