package episode

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func t0() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

func TestOpenRestartClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "episodes.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	at := t0()
	id, err := l.OpenEpisode("kvsd", "signal:killed", at)
	if err != nil {
		t.Fatal(err)
	}
	if e := l.OpenFor("kvsd"); e == nil || e.ID != id {
		t.Fatalf("OpenFor = %+v, want open episode %d", e, id)
	}
	if err := l.Restart(id, at.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseEpisode(id, ResolutionHealthy, at.Add(3*time.Second), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if e := l.OpenFor("kvsd"); e != nil {
		t.Fatalf("episode still open after close: %+v", e)
	}
	eps := readAll(t, path)
	if len(eps) != 1 {
		t.Fatalf("got %d episodes, want 1", len(eps))
	}
	e := eps[0]
	if !e.Closed || e.Restarts != 1 || e.Resolution != ResolutionHealthy {
		t.Fatalf("episode = %+v", e)
	}
	if e.OutageNS != int64(3*time.Second) || e.HealthyNS != int64(2*time.Second) {
		t.Fatalf("durations = outage %d healthy %d", e.OutageNS, e.HealthyNS)
	}
	if e.Adopted {
		t.Fatal("same-run close must not be marked adopted")
	}
	if err := l.CloseFile(); err != nil {
		t.Fatal(err)
	}

	// The read-only view sees the same history.
	got, torn, err := Read(path)
	if err != nil || torn != 0 {
		t.Fatalf("Read: %v (torn %d)", err, torn)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("Read = %+v, want %+v", got, e)
	}
}

// TestAdoptionAcrossRestart: an episode left open by a dead supervisor is
// adopted by the next one and closed with the adopted flag — one open/close
// pair even though two supervisor processes touched it.
func TestAdoptionAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "episodes.jsonl")
	l1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := l1.OpenEpisode("kvsd", "crash", t0())
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.CloseFile(); err != nil { // supervisor dies mid-outage
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.CloseFile()
	adopted := l2.OpenFor("kvsd")
	if adopted == nil || adopted.ID != id {
		t.Fatalf("adopted = %+v, want open episode %d", adopted, id)
	}
	if err := l2.CloseEpisode(id, ResolutionHealthy, t0().Add(10*time.Second), time.Second); err != nil {
		t.Fatal(err)
	}
	eps := readAll(t, path)
	if len(eps) != 1 || !eps[0].Closed || !eps[0].Adopted {
		t.Fatalf("episodes = %+v, want one closed adopted episode", eps)
	}

	// A fresh episode in the new run allocates a new ID past the replayed one.
	id2, err := l2.OpenEpisode("kvsd", "stuck", t0().Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("new ID %d not past replayed %d", id2, id)
	}
}

func TestLenientReadAndMissingFile(t *testing.T) {
	dir := t.TempDir()
	if eps, torn, err := Read(filepath.Join(dir, "nope.jsonl")); err != nil || len(eps) != 0 || torn != 0 {
		t.Fatalf("missing file: eps=%v torn=%d err=%v", eps, torn, err)
	}

	path := filepath.Join(dir, "episodes.jsonl")
	content := `{"kind":"open","id":0,"daemon":"kvsd","cause":"crash","time":"2026-08-08T12:00:00Z"}
not json at all
{"kind":"close","id":0,"daemon":"kvsd","time":"2026-08-08T12:00:05Z","restarts":1,"resolution":"healthy","outage_ns":5000000000}
{"kind":"open","id":1,"daemon":"kvsd","cause":"stuck","time":"2026-08-08T12:01:00Z"}
{"kind":"open","id":2,"daemon":`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	eps, torn, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 2 {
		t.Fatalf("torn = %d, want 2 (garbage line + torn tail)", torn)
	}
	if len(eps) != 2 || !eps[0].Closed || eps[1].Closed {
		t.Fatalf("eps = %+v, want one closed + one open", eps)
	}

	snap := SnapshotOf(eps, torn, 1)
	if snap.Total != 2 || snap.Open != 1 || snap.TornRecords != 2 || len(snap.Episodes) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Episodes[0].ID != 1 {
		t.Fatalf("snapshot kept %d, want most recent episode", snap.Episodes[0].ID)
	}
}

func TestCloseUnknownEpisode(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "e.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.CloseFile()
	if err := l.CloseEpisode(99, ResolutionHealthy, t0(), 0); err == nil {
		t.Fatal("closing an unknown episode should error")
	}
	if err := l.Restart(99, t0()); err == nil {
		t.Fatal("restarting an unknown episode should error")
	}
}

// readAll reads the ledger file the way wdobs and wdstat do.
func readAll(t *testing.T, path string) []Episode {
	t.Helper()
	eps, _, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}
