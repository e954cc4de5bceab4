package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

func alarmFor(checker string, site watchdog.Site) watchdog.Alarm {
	return watchdog.Alarm{Report: watchdog.Report{
		Checker: checker,
		Status:  watchdog.StatusError,
		Site:    site,
	}}
}

func TestActionMatchingInRegistrationOrder(t *testing.T) {
	m := New()
	var ran []string
	m.Register(ForChecker("first", "kvs.", func(watchdog.Report) error {
		ran = append(ran, "first")
		return nil
	}))
	m.Register(ForChecker("second", "kvs.flusher", func(watchdog.Report) error {
		ran = append(ran, "second")
		return nil
	}))
	m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
	if len(ran) != 1 || ran[0] != "first" {
		t.Fatalf("ran = %v, want [first]", ran)
	}
	ev := m.Events()
	if len(ev) != 1 || ev[0].Kind != EventRecovered || ev[0].Action != "first" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestForSiteOpMatching(t *testing.T) {
	m := New()
	ran := false
	m.Register(ForSiteOp("reconnect", "net.Write", func(watchdog.Report) error {
		ran = true
		return nil
	}))
	m.HandleAlarm(alarmFor("anything", watchdog.Site{Op: "net.Write"}))
	if !ran {
		t.Fatal("site-op action did not run")
	}
	m.HandleAlarm(alarmFor("anything", watchdog.Site{Op: "sstable.Write"}))
	ev := m.Events()
	if len(ev) != 2 || ev[1].Kind != EventUnmatched {
		t.Fatalf("events = %+v", ev)
	}
}

func TestFailedActionLogged(t *testing.T) {
	m := New()
	boom := errors.New("repair failed")
	m.Register(ForChecker("bad", "x", func(watchdog.Report) error { return boom }))
	m.HandleAlarm(alarmFor("x.y", watchdog.Site{}))
	ev := m.Events()
	if len(ev) != 1 || ev[0].Kind != EventFailed || !errors.Is(ev[0].Err, boom) {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEscalationAfterMaxAttempts(t *testing.T) {
	v := clock.NewVirtual()
	escalated := 0
	m := New(
		WithClock(v),
		WithMaxAttempts(2),
		WithWindow(time.Minute),
		WithEscalation(ActionFunc{
			ActionName: "restart-process",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { escalated++; return nil },
		}),
	)
	attempts := 0
	m.Register(ForChecker("component-restart", "kvs.", func(watchdog.Report) error {
		attempts++
		return nil
	}))
	for i := 0; i < 4; i++ {
		m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
		v.Advance(time.Second)
	}
	if attempts != 2 {
		t.Fatalf("component attempts = %d, want 2", attempts)
	}
	if escalated != 2 {
		t.Fatalf("escalations = %d, want 2", escalated)
	}
	// Outside the window the counter resets and the cheap action runs again.
	v.Advance(2 * time.Minute)
	m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
	if attempts != 3 {
		t.Fatalf("attempts after window reset = %d, want 3", attempts)
	}
}

func TestDismissedAlarmsIgnored(t *testing.T) {
	m := New()
	ran := false
	m.Register(ForChecker("a", "", func(watchdog.Report) error { ran = true; return nil }))
	notImpactful := false
	m.HandleAlarm(watchdog.Alarm{
		Report:    watchdog.Report{Checker: "c", Status: watchdog.StatusError},
		Validated: &notImpactful,
	})
	if ran {
		t.Fatal("recovery ran for a probe-dismissed alarm")
	}
	if len(m.Events()) != 0 {
		t.Fatalf("events = %+v", m.Events())
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventRecovered: "recovered", EventFailed: "failed",
		EventEscalated: "escalated", EventUnmatched: "unmatched",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d) = %q", int(k), k.String())
		}
	}
}

// TestEndToEndKVSCorruptionRepair is the §5.2 scenario in full: the
// watchdog's partition checker detects silent corruption, the recovery
// manager quarantines the corrupt table, and the store — without a restart —
// passes verification again while data covered by healthy state stays
// readable.
func TestEndToEndKVSCorruptionRepair(t *testing.T) {
	dir := t.TempDir()
	factory := watchdog.NewFactory()
	store, err := kvs.Open(kvs.Config{Dir: dir, FlushThresholdBytes: 1 << 30,
		WatchdogFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	shadow, err := wdio.NewFS(filepath.Join(dir, "wd-shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	driver := watchdog.New(watchdog.WithFactory(factory), watchdog.WithTimeout(time.Second))
	store.InstallWatchdog(driver, shadow)

	m := New()
	m.Register(ForSiteOp("quarantine-corrupt-tables", "sstable.VerifyChecksum",
		func(rep watchdog.Report) error {
			for i := 0; i < store.Partitions(); i++ {
				if _, err := store.RepairPartition(i); err != nil {
					return err
				}
			}
			return nil
		}))
	driver.OnAlarm(m.HandleAlarm)

	// Two generations of data: an older table (stays healthy) and a newer
	// one (gets corrupted).
	store.Set([]byte("Aold"), []byte("from-old-table"))
	store.FlushAll(true)
	store.Set([]byte("Anew"), []byte("from-new-table"))
	store.FlushAll(true)
	p0 := 0 // keys starting with 'A' (0x41) live in partition 1 of 4
	for i := 0; i < store.Partitions(); i++ {
		if store.TableCount(i) == 2 {
			p0 = i
		}
	}
	paths := store.TablePaths(p0)
	if len(paths) != 2 {
		t.Fatalf("tables = %d", len(paths))
	}
	data, _ := os.ReadFile(paths[0]) // newest
	data[9] ^= 0x40
	os.WriteFile(paths[0], data, 0o644)

	// Detection: the partition checker alarms; recovery runs synchronously.
	rep, _ := driver.CheckNow("kvs.partition")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("checker = %v", rep.Status)
	}
	ev := m.Events()
	if len(ev) != 1 || ev[0].Kind != EventRecovered {
		t.Fatalf("recovery events = %+v", ev)
	}

	// Post-recovery: verification passes, the corrupt table is quarantined,
	// and old data is still served.
	rep, _ = driver.CheckNow("kvs.partition")
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("checker after repair = %v err=%v", rep.Status, rep.Err)
	}
	if store.TableCount(p0) != 1 {
		t.Fatalf("tables after repair = %d", store.TableCount(p0))
	}
	if _, err := os.Stat(paths[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt table not quarantined: %v", err)
	}
	v, ok, err := store.Get([]byte("Aold"))
	if err != nil || !ok || string(v) != "from-old-table" {
		t.Fatalf("old data lost: %q %v %v", v, ok, err)
	}
	if store.Metrics().Counter("kvs.repairs").Value() == 0 {
		t.Fatal("repair counter not incremented")
	}
}

// TestEventRingOverflow: the bounded event ring keeps the newest events in
// oldest-first order once it wraps, and DroppedEvents accounts for the rest —
// including under concurrent alarm handling (meaningful under -race).
func TestEventRingOverflow(t *testing.T) {
	m := New()
	m.eventCap = 4
	m.Register(ForChecker("fix", "c.", func(watchdog.Report) error { return nil }))
	for i := 0; i < 10; i++ {
		m.HandleAlarm(alarmFor(fmt.Sprintf("c.%d", i), watchdog.Site{}))
	}
	ev := m.Events()
	if len(ev) != 4 {
		t.Fatalf("ring retained %d events, want the cap of 4", len(ev))
	}
	for i, e := range ev {
		if want := fmt.Sprintf("c.%d", 6+i); e.Checker != want {
			t.Fatalf("event[%d] = %s, want %s (newest four, oldest first)", i, e.Checker, want)
		}
	}
	if got := m.DroppedEvents(); got != 6 {
		t.Fatalf("DroppedEvents = %d, want 6", got)
	}

	// Concurrent alarms must not corrupt the ring: total accounting stays
	// exact and the retained window stays at the cap.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m.HandleAlarm(alarmFor(fmt.Sprintf("c.g%d.%d", g, i), watchdog.Site{}))
			}
		}(g)
	}
	wg.Wait()
	if got := m.DroppedEvents(); got != 10+200-4 {
		t.Fatalf("DroppedEvents after concurrent overflow = %d, want %d", got, 10+200-4)
	}
	if got := len(m.Events()); got != 4 {
		t.Fatalf("ring retained %d events after concurrent overflow, want 4", got)
	}
}

// TestEscalationExitAfterEscalationRan: the exit rung fires only after the
// escalation action has had its chance within the window — the hand-off from
// in-process repair to external restart (wdsuper).
func TestEscalationExitAfterEscalationRan(t *testing.T) {
	v := clock.NewVirtual()
	var (
		escalated int
		exits     []int
	)
	m := New(
		WithClock(v),
		WithMaxAttempts(2),
		WithWindow(time.Minute),
		WithEscalation(ActionFunc{
			ActionName: "restart-component",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { escalated++; return nil },
		}),
		WithEscalationExit(70),
	)
	m.exitFn = func(code int) { exits = append(exits, code) }
	m.Register(ForChecker("noop", "kvs.", func(watchdog.Report) error { return nil }))

	// Two cheap attempts, then one escalation, then exit.
	for i := 0; i < 4; i++ {
		m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
		v.Advance(time.Second)
	}
	if escalated != 1 {
		t.Fatalf("escalations = %d, want 1 before the exit rung", escalated)
	}
	if len(exits) != 1 || exits[0] != 70 {
		t.Fatalf("exits = %v, want [70]", exits)
	}
	ev := m.Events()
	last := ev[len(ev)-1]
	if last.Kind != EventExited || last.Checker != "kvs.flusher" {
		t.Fatalf("last event = %+v, want EventExited", last)
	}
	if EventExited.String() != "exited" {
		t.Fatalf("EventExited.String() = %q", EventExited.String())
	}
}

// TestEscalationExitWithoutEscalationAction: with no escalation action the
// exit rung fires directly at the threshold.
func TestEscalationExitWithoutEscalationAction(t *testing.T) {
	v := clock.NewVirtual()
	var exits []int
	m := New(
		WithClock(v),
		WithMaxAttempts(2),
		WithEscalationExit(70),
	)
	m.exitFn = func(code int) { exits = append(exits, code) }
	m.Register(ForChecker("noop", "kvs.", func(watchdog.Report) error { return nil }))
	for i := 0; i < 3; i++ {
		m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
		v.Advance(time.Second)
	}
	if len(exits) != 1 || exits[0] != 70 {
		t.Fatalf("exits = %v, want [70]", exits)
	}
}

// TestEscalationExitClearedByHealth: sustained health clears the escalation
// record, so the next failure cycle starts back at the cheap rung.
func TestEscalationExitClearedByHealth(t *testing.T) {
	v := clock.NewVirtual()
	var (
		escalated int
		exits     []int
	)
	m := New(
		WithClock(v),
		WithMaxAttempts(1),
		WithWindow(time.Minute),
		WithHealthyReset(time.Second),
		WithEscalation(ActionFunc{
			ActionName: "restart-component",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { escalated++; return nil },
		}),
		WithEscalationExit(70),
	)
	m.exitFn = func(code int) { exits = append(exits, code) }
	m.Register(ForChecker("noop", "kvs.", func(watchdog.Report) error { return nil }))

	m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{})) // cheap
	v.Advance(time.Second)
	m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{})) // escalation runs
	if escalated != 1 || len(exits) != 0 {
		t.Fatalf("escalated=%d exits=%v before health", escalated, exits)
	}

	// The escalation repaired it; health holds past the reset period.
	v.Advance(2 * time.Second)
	m.ObserveReport(watchdog.Report{Checker: "kvs.flusher", Status: watchdog.StatusHealthy})

	// A later relapse climbs the ladder from the bottom instead of exiting.
	m.HandleAlarm(alarmFor("kvs.flusher", watchdog.Site{}))
	if len(exits) != 0 {
		t.Fatalf("exits = %v after healthy reset, want none", exits)
	}
}

func TestTotalEvents(t *testing.T) {
	m := New()
	m.eventCap = 2
	m.Register(ForChecker("noop", "x", func(watchdog.Report) error { return nil }))
	for i := 0; i < 5; i++ {
		m.HandleAlarm(alarmFor("x.y", watchdog.Site{}))
	}
	if m.TotalEvents() != 5 {
		t.Fatalf("TotalEvents = %d, want 5", m.TotalEvents())
	}
	if m.DroppedEvents() != 3 {
		t.Fatalf("DroppedEvents = %d, want 3", m.DroppedEvents())
	}
}
