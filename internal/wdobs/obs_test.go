package wdobs

import (
	"bytes"
	"errors"
	"testing"

	"gowatchdog/internal/watchdog"
)

// driveObs wires an Obs to a driver with one healthy and one failing checker
// and runs each n times via CheckNow.
func driveObs(t *testing.T, o *Obs, failRuns int) *watchdog.Driver {
	t.Helper()
	d := watchdog.New()
	var fail bool
	d.Register(watchdog.NewChecker("ok", func(*watchdog.Context) error { return nil }),
		watchdog.Threshold(2))
	d.Register(watchdog.NewChecker("flaky", func(*watchdog.Context) error {
		if fail {
			return errors.New("injected fault")
		}
		return nil
	}), watchdog.Threshold(2))
	d.Factory().Context("ok").MarkReady()
	d.Factory().Context("flaky").MarkReady()
	o.Attach(d)

	check := func(name string) {
		t.Helper()
		if _, err := d.CheckNow(name); err != nil {
			t.Fatal(err)
		}
	}
	check("ok")
	check("flaky")
	fail = true
	for i := 0; i < failRuns; i++ {
		check("flaky")
	}
	return d
}

func TestObsCountsAndJournal(t *testing.T) {
	var sink bytes.Buffer
	o := New(WithSink(&sink))
	driveObs(t, o, 2)

	// 4 executions total: ok×1, flaky×3 (1 healthy + 2 errors).
	if got := o.Snapshot().Reports; got != 4 {
		t.Errorf("Reports = %d, want 4", got)
	}
	// Threshold 2 → one alarm on the second consecutive error.
	if got := o.Snapshot().Alarms; got != 1 {
		t.Errorf("Alarms = %d, want 1", got)
	}

	cm := o.checker("flaky")
	if n := cm.runs[watchdog.StatusHealthy].Value(); n != 1 {
		t.Errorf("flaky healthy runs = %d, want 1", n)
	}
	if n := cm.runs[watchdog.StatusError].Value(); n != 2 {
		t.Errorf("flaky error runs = %d, want 2", n)
	}
	if n := cm.transitions.Value(); n != 1 {
		t.Errorf("flaky transitions = %d, want 1 (healthy→error)", n)
	}

	// Journal: first report per checker (2), the two abnormal reports, and
	// the alarm = 5 events. Steady healthy ticks are not journaled.
	evs := o.Journal().Events()
	if len(evs) != 5 {
		t.Fatalf("journal has %d events, want 5: %+v", len(evs), evs)
	}
	var alarms int
	for _, e := range evs {
		if e.Kind == KindAlarm {
			alarms++
			if e.Consecutive != 2 {
				t.Errorf("alarm consecutive = %d, want 2", e.Consecutive)
			}
		}
	}
	if alarms != 1 {
		t.Errorf("journal alarms = %d, want 1", alarms)
	}

	// The sink saw the same events, round-trippable.
	decoded, err := ReadJournal(&sink)
	if err != nil {
		t.Fatalf("ReadJournal(sink): %v", err)
	}
	if len(decoded) != len(evs) {
		t.Errorf("sink events = %d, journal events = %d", len(decoded), len(evs))
	}
}

func TestObsSnapshot(t *testing.T) {
	o := New()
	driveObs(t, o, 2)

	snap := o.Snapshot()
	if snap.Healthy {
		t.Error("snapshot healthy with a failing checker")
	}
	if len(snap.Checkers) != 2 {
		t.Fatalf("snapshot has %d checkers, want 2", len(snap.Checkers))
	}
	byName := map[string]CheckerSnapshot{}
	for _, c := range snap.Checkers {
		byName[c.Name] = c
	}
	ok, flaky := byName["ok"], byName["flaky"]
	if ok.Status != watchdog.StatusHealthy || ok.Runs != 1 {
		t.Errorf("ok snapshot wrong: %+v", ok)
	}
	if flaky.Status != watchdog.StatusError || flaky.Runs != 3 || flaky.Consecutive != 2 {
		t.Errorf("flaky snapshot wrong: %+v", flaky)
	}
	if flaky.LastReport == nil || flaky.LastReport.Err == nil {
		t.Errorf("flaky last report missing error: %+v", flaky.LastReport)
	}
	if ok.Latency.Count != 1 || ok.Latency.P99NS <= 0 {
		t.Errorf("ok latency summary wrong: %+v", ok.Latency)
	}
	if !ok.Context.Ready || ok.Context.StalenessNS < 0 {
		t.Errorf("ok context wrong: %+v", ok.Context)
	}
	if ok.Threshold != 2 {
		t.Errorf("ok threshold = %d, want 2", ok.Threshold)
	}
}

func TestObsSnapshotNoDriver(t *testing.T) {
	o := New()
	snap := o.Snapshot()
	if !snap.Healthy || len(snap.Checkers) != 0 {
		t.Errorf("detached snapshot = %+v", snap)
	}
}
