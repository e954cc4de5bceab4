package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdobs"
)

func TestRenderJournalFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "detections.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := wdobs.ReadJournal(f)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("fixture has %d events, want 6", len(events))
	}

	var out strings.Builder
	renderJournal(&out, events)
	got := out.String()
	for _, want := range []string{
		"kvs.compaction",
		"stuck",
		"liveness timeout after 400ms",
		"@kvs.compactPartition",
		"(consecutive=3, validated=true)",
		"6 events, 1 alarms, 2 checkers",
		"last status healthy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered journal missing %q:\n%s", want, got)
		}
	}
}

func TestRenderJournalEmpty(t *testing.T) {
	var out strings.Builder
	renderJournal(&out, nil)
	if !strings.Contains(out.String(), "empty journal") {
		t.Errorf("empty render = %q", out.String())
	}
}

// TestJournalDamageReport: a journal ending in a torn final write replays the
// intact prefix and reports the truncation instead of silently skipping it.
func TestJournalDamageReport(t *testing.T) {
	intact, err := os.ReadFile(filepath.Join("testdata", "detections.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a daemon killed mid-append: the last line is cut short.
	torn := append(append([]byte{}, intact...), []byte(`{"seq":7,"kind":"rep`)...)
	events, stats, err := wdobs.ReadJournalLenient(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("ReadJournalLenient: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("replayed %d events from the torn journal, want the 6 intact ones", len(events))
	}

	var out strings.Builder
	reportJournalDamage(&out, stats)
	got := out.String()
	if !strings.Contains(got, "torn write") || !strings.Contains(got, "6 of 7 lines replayed") {
		t.Errorf("damage report = %q, want the torn-write warning with counts", got)
	}

	// Multi-line damage reports the first malformed line number.
	out.Reset()
	reportJournalDamage(&out, wdobs.JournalReadStats{Lines: 9, Events: 6, Malformed: 3, FirstMalformedLine: 4, TornTail: true})
	got = out.String()
	if !strings.Contains(got, "3 malformed line(s)") || !strings.Contains(got, "first at line 4") {
		t.Errorf("multi-damage report = %q", got)
	}

	// A clean read prints nothing.
	out.Reset()
	reportJournalDamage(&out, wdobs.JournalReadStats{Lines: 6, Events: 6})
	if out.Len() != 0 {
		t.Errorf("clean read produced a damage report: %q", out.String())
	}
}

// TestRenderJournalCEPAndRecovery pins the KindCEP/KindRecovery annotations.
func TestRenderJournalCEPAndRecovery(t *testing.T) {
	events := []wdobs.Event{
		{Seq: 1, Kind: wdobs.KindCEP,
			Report:      watchdog.Report{Checker: "wdcep.wal-streak", Status: watchdog.StatusError},
			Rule:        "wal-streak",
			Consecutive: 3},
		{Seq: 2, Kind: wdobs.KindRecovery,
			Report:  watchdog.Report{Checker: "kvs.wal", Status: watchdog.StatusError},
			Outcome: "escalated", Action: "kvs.restart", Attempt: 2},
	}
	var out strings.Builder
	renderJournal(&out, events)
	got := out.String()
	for _, want := range []string{
		"(rule=wal-streak, count=3)",
		"(escalated, action=kvs.restart, attempt=2)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered journal missing %q:\n%s", want, got)
		}
	}
}

// TestReplayRules runs a journal through a rule file offline and checks the
// fired rules print with their contributing event windows.
func TestReplayRules(t *testing.T) {
	rulesPath := filepath.Join(t.TempDir(), "rules.json")
	if err := os.WriteFile(rulesPath, []byte(`{"rules":[
		{"name":"streak","kind":"consecutive","count":3,"match":{"checker_prefix":"kvs.wal"}}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	var events []wdobs.Event
	for i := 0; i < 4; i++ {
		events = append(events, wdobs.Event{
			Seq:  int64(i + 1),
			Kind: wdobs.KindReport,
			Report: watchdog.Report{
				Checker: "kvs.wal",
				Status:  watchdog.StatusError,
				Time:    base.Add(time.Duration(i) * time.Second),
			},
		})
	}
	var out strings.Builder
	if err := replayRules(&out, rulesPath, events); err != nil {
		t.Fatalf("replayRules: %v", err)
	}
	got := out.String()
	for _, want := range []string{"1 firing(s)", "streak", "count=3", "[kvs.wal]"} {
		if !strings.Contains(got, want) {
			t.Errorf("replay output missing %q:\n%s", want, got)
		}
	}

	if err := replayRules(&out, filepath.Join(t.TempDir(), "missing.json"), events); err == nil {
		t.Fatal("missing rule file should error")
	}
}

// TestCapsuleViewsGolden pins the capsule view over a committed capsule, and
// the directory summary over that capsule beside one a torn write left
// unreadable, which is listed rather than failing the summary.
func TestCapsuleViewsGolden(t *testing.T) {
	var out strings.Builder
	if err := show(&out, filepath.Join("testdata", "capsules", "kvs.flusher-1.json")); err != nil {
		t.Fatal(err)
	}
	if err := summarizeDir(&out, filepath.Join("testdata", "capsules")); err != nil {
		t.Fatal(err)
	}
	golden := strings.Join([]string{
		"checker:  kvs.flusher",
		"status:   error",
		"error:    kvs.(*Store).FlushPartition/sstable.Write@internal/kvs/flush.go:68: write p001/000007.sst: input/output error",
		"site:     kvs.(*Store).FlushPartition/sstable.Write@internal/kvs/flush.go:68",
		"time:     2026-08-05 12:00:01 +0000 UTC  (checker latency 1.5ms)",
		"context:  3 captured values (restored, ready=true)",
		`  entries        = "user:0001=profile-data;user:0002=profile-data;user:0003=prof..." (78 bytes)`,
		"  partition      = 1",
		"  path           = /var/kvs/p001/000007.sst",
		"kvs.flusher-1.json                        error     kvs.flusher   kvs.(*Store).FlushPartition/sstable.Write@internal/kvs/flush.go:68",
		"kvs.wal-2.json                            (unreadable: capsule: unexpected end of JSON input)",
		"",
	}, "\n")
	if got := out.String(); got != golden {
		t.Errorf("capsule views mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestShowTornCapsuleNamesPath: a capsule a torn write left unreadable fails
// the one-capsule view with an error that names the file, so an operator
// going through several capsules can tell which one is bad.
func TestShowTornCapsuleNamesPath(t *testing.T) {
	path := filepath.Join("testdata", "capsules", "kvs.wal-2.json")
	var out strings.Builder
	err := show(&out, path)
	if err == nil {
		t.Fatal("a torn capsule should not render")
	}
	if want := path + ": capsule: unexpected end of JSON input"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Fatalf("a torn capsule printed %q", out.String())
	}
}
