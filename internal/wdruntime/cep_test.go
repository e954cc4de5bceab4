package wdruntime_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gowatchdog/internal/recovery"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdobs"
	"gowatchdog/internal/wdruntime"
)

// TestCEPFiringSynthesizesAlarm proves the full loop: checker reports stream
// through the journal tap into the engine, the rule fires, the firing lands in
// the journal as KindCEP, and the synthesized alarm reaches driver listeners.
func TestCEPFiringSynthesizesAlarm(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	rt, err := wdruntime.New(
		wdruntime.WithInterval(2*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
		wdruntime.WithJournalPath(journal),
		wdruntime.WithCEPRules(wdcep.Consecutive("streak", 3).OnChecker("flaky")),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rt.CEP() == nil {
		t.Fatal("CEP() = nil with rules configured")
	}
	var alarms []watchdog.Alarm
	rt.Driver().OnAlarm(func(a watchdog.Alarm) { alarms = append(alarms, a) })
	rt.Driver().Register(
		watchdog.NewChecker("flaky", func(*watchdog.Context) error { return errors.New("down") }),
		watchdog.WithContext(readyContext()),
		// High threshold: intrinsic alarms stay quiet so the only alarm the
		// listener can see is the synthesized one.
		watchdog.Threshold(100),
	)
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return rt.CEP().Fired() >= 1 }, "the rule to fire")
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	firings := rt.CEP().Firings()
	if len(firings) == 0 {
		t.Fatal("no firings recorded")
	}
	f := firings[0]
	if f.Rule != "streak" || f.Count < 3 {
		t.Fatalf("firing = %+v, want rule streak with count >= 3", f)
	}
	if f.First.After(f.Last) {
		t.Fatalf("firing window inverted: first %v after last %v", f.First, f.Last)
	}

	var cepAlarms int
	for _, a := range alarms {
		if a.Report.Checker == "wdcep.streak" {
			cepAlarms++
			if a.Consecutive < 3 {
				t.Fatalf("synthesized alarm consecutive = %d, want >= 3", a.Consecutive)
			}
		}
	}
	if cepAlarms == 0 {
		t.Fatalf("no synthesized wdcep alarm among %d alarms", len(alarms))
	}

	var cepEvents int
	for _, e := range readJournal(t, journal) {
		if e.Kind == wdobs.KindCEP {
			cepEvents++
			if e.Rule != "streak" || e.Report.Checker != "wdcep.streak" {
				t.Fatalf("KindCEP event = %+v, want rule streak", e)
			}
		}
	}
	if cepEvents == 0 {
		t.Fatal("no KindCEP event reached the journal file")
	}
}

// TestCEPFireDuringClose arms a rule whose evaluation can only happen in
// Close's engine drain (EvalEvery is an hour, so no Pump ever evaluates).
// The firing must neither deadlock the shutdown — OnFire appends to the
// journal whose tap publishes back into the engine, all under the engine
// lock — nor lose its journal entry: the KindCEP event must be in the ring
// and in the journal file.
func TestCEPFireDuringClose(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	rt, err := wdruntime.New(
		wdruntime.WithInterval(2*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
		wdruntime.WithJournalPath(journal),
		wdruntime.WithCEPRules(wdcep.Consecutive("late", 2).OnChecker("flaky")),
		wdruntime.WithCEPEvalEvery(time.Hour),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Driver().Register(
		watchdog.NewChecker("flaky", func(*watchdog.Context) error { return errors.New("down") }),
		watchdog.WithContext(readyContext()),
		watchdog.Threshold(100),
	)
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Let enough abnormal reports accumulate in the ring, unevaluated.
	waitFor(t, 5*time.Second, func() bool {
		return rt.CEP().Snapshot().Published >= 3
	}, "events to reach the engine ring")
	if rt.CEP().Fired() != 0 {
		t.Fatal("rule fired before Close; EvalEvery gate did not hold")
	}

	done := make(chan error, 1)
	go func() { done <- rt.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a rule firing during drain")
	}

	if got := rt.CEP().Fired(); got != 1 {
		t.Fatalf("Fired after Close = %d, want 1", got)
	}
	var inRing bool
	for _, e := range rt.Obs().Journal().Events() {
		if e.Kind == wdobs.KindCEP && e.Rule == "late" {
			inRing = true
		}
	}
	if !inRing {
		t.Fatal("KindCEP entry missing from the journal ring")
	}
	var inFile bool
	for _, e := range readJournal(t, journal) {
		if e.Kind == wdobs.KindCEP && e.Rule == "late" {
			inFile = true
		}
	}
	if !inFile {
		t.Fatal("KindCEP entry missing from the journal file")
	}
}

// TestRecoveryEventsJournaled proves recovery-manager outcomes land in the
// journal as KindRecovery entries with outcome/action/attempt populated.
func TestRecoveryEventsJournaled(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	rec := recovery.New()
	rec.Register(recovery.ForChecker("fix-flaky", "flaky", func(watchdog.Report) error {
		return nil // repair succeeds
	}))
	rt, err := wdruntime.New(
		wdruntime.WithInterval(2*time.Millisecond),
		wdruntime.WithTimeout(time.Second),
		wdruntime.WithJournalPath(journal),
		wdruntime.WithRecovery(rec),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.Driver().Register(
		watchdog.NewChecker("flaky", func(*watchdog.Context) error { return errors.New("down") }),
		watchdog.WithContext(readyContext()),
		watchdog.Threshold(2),
	)
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, e := range rt.Obs().Journal().Events() {
			if e.Kind == wdobs.KindRecovery {
				return true
			}
		}
		return false
	}, "a KindRecovery journal entry")
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var found bool
	for _, e := range rt.Obs().Journal().Events() {
		if e.Kind != wdobs.KindRecovery {
			continue
		}
		found = true
		if e.Report.Checker != "flaky" {
			t.Fatalf("recovery entry checker = %q, want flaky", e.Report.Checker)
		}
		if e.Outcome == "" {
			t.Fatal("recovery entry missing outcome")
		}
		if e.Outcome == "recovered" {
			if e.Report.Status != watchdog.StatusHealthy {
				t.Fatalf("recovered entry status = %v, want healthy", e.Report.Status)
			}
			if e.Action != "fix-flaky" {
				t.Fatalf("recovered entry action = %q, want fix-flaky", e.Action)
			}
		}
	}
	if !found {
		t.Fatal("no KindRecovery entry retained")
	}
}

// TestCEPRulesFileFlag wires a rule file through -wd-rules and proves the
// engine loads it (and that a bad file fails New, not Fire time).
func TestCEPRulesFileFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rules.json")
	rules := map[string]any{"rules": []map[string]any{{
		"name":  "spread",
		"kind":  "distinct",
		"count": 2, "window": "30s",
	}}}
	data, _ := json.Marshal(rules)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rt, err := wdruntime.New(wdruntime.FromConfig(daemonConfig(t, "-wd-rules", path)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if rt.CEP() == nil {
		t.Fatal("CEP() = nil after -wd-rules")
	}
	if got := rt.CEP().Snapshot().Rules; got != 1 {
		t.Fatalf("rules loaded = %d, want 1", got)
	}
	if rt.Obs() == nil {
		t.Fatal("rules must force the observability layer on")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	missing := daemonConfig(t, "-wd-rules", filepath.Join(dir, "missing.json"))
	if _, err := wdruntime.New(wdruntime.FromConfig(missing)); err == nil {
		t.Fatal("New with a missing rule file should fail")
	}
}
