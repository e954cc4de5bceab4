package kvs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCompactionKeepsTablesOpenForReaders races gets and scans against a
// flush-and-compact loop. (VerifyPartition holds the stack the same way but
// stays out of the race: its WAL pass can observe a flush's WAL reset
// half-way, an older race of its own.) A compaction drops the
// tables it merged, but a reader that started on the old stack still holds
// them: no read may fail, and once everyone is done only the live stack's
// files may remain.
func TestCompactionKeepsTablesOpenForReaders(t *testing.T) {
	s := openStore(t, func(c *Config) {
		c.Partitions = 1
		c.Sync = SyncNone
		c.CompactionMinTables = 2
	})
	const keys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 0; i < keys; i++ {
		if err := s.Set(key(i), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushPartition(0, true); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Every key was flushed before the loop began and is only ever
				// overwritten, so a miss is as wrong as an error.
				if _, ok, err := s.Get(key(i % keys)); err != nil || !ok {
					t.Errorf("Get %s: ok=%v err=%v", key(i%keys), ok, err)
					return
				}
				if i%16 == 0 {
					if es, err := s.Scan(key(0), nil, 32); err != nil || len(es) != 32 {
						t.Errorf("Scan: %d entries, err=%v", len(es), err)
						return
					}
				}
			}
		}(r)
	}

	for round := 1; round <= 150; round++ {
		// Overwrite a slice of the keys so the new table shadows the old one.
		for i := round % 7; i < keys; i += 7 {
			if err := s.Set(key(i), []byte(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.FlushPartition(0, true); err != nil {
			t.Fatal(err)
		}
		if err := s.CompactPartition(0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	// A table a reader still held when its compaction finished is reaped by
	// the next compaction tick.
	if err := s.CompactPartition(0); err != nil {
		t.Fatal(err)
	}

	if got := s.TableCount(0); got != 1 {
		t.Fatalf("tables after the last compaction = %d, want 1", got)
	}
	files, err := filepath.Glob(filepath.Join(filepath.Dir(s.TablePaths(0)[0]), "*.sst"))
	if err != nil || len(files) != 1 {
		t.Fatalf("table files left on disk: %v (%v), want only the live one", files, err)
	}
	if _, err := os.Stat(s.TablePaths(0)[0]); err != nil {
		t.Fatalf("live table: %v", err)
	}
}

// TestOpenQuarantinesCorruptTable checks that one table whose footer no
// longer parses does not keep the store from opening: Open renames it with
// the .corrupt suffix RepairPartition uses, counts it in kvs.repairs, and
// serves every key held outside that table.
func TestOpenQuarantinesCorruptTable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Partitions: 1, FlushThresholdBytes: 1 << 30}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := func(prefix string) {
		for i := 0; i < 10; i++ {
			if err := s.Set([]byte(fmt.Sprintf("%s%d", prefix, i)), []byte(prefix)); err != nil {
				t.Fatal(err)
			}
		}
	}
	set("old")
	if err := s.FlushPartition(0, true); err != nil {
		t.Fatal(err)
	}
	set("new")
	if err := s.FlushPartition(0, true); err != nil {
		t.Fatal(err)
	}
	set("wal")
	paths := s.TablePaths(0) // newest first
	if len(paths) != 2 {
		t.Fatalf("tables = %v, want 2", paths)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := paths[1]
	b, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // the footer's last byte
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = nil
	s, err = Open(cfg)
	if err != nil {
		t.Fatalf("Open with one corrupt table: %v", err)
	}
	defer s.Close()
	if n := s.Metrics().Counter("kvs.repairs").Value(); n != 1 {
		t.Fatalf("kvs.repairs = %d, want 1", n)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("quarantined table: %v", err)
	}
	for _, p := range s.TablePaths(0) {
		if p == bad {
			t.Fatalf("corrupt table %s still on the read path", bad)
		}
	}
	for _, prefix := range []string{"new", "wal"} {
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("%s%d", prefix, i)
			v, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(v) != prefix {
				t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
			}
		}
	}
}

// TestFailedOpenClosesLoadedTables: a partition whose WAL cannot open fails
// the store, and the tables it had already opened are closed, not leaked.
func TestFailedOpenClosesLoadedTables(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Partitions: 1, FlushThresholdBytes: 1 << 30}
	s, err := Open(cfg)
	for i := 0; i < 3 && err == nil; i++ {
		if err = s.Set([]byte(fmt.Sprint(i)), []byte("v")); err == nil {
			err = s.FlushPartition(0, true)
		}
	}
	walPath := filepath.Join(cfg.Dir, "p000", "wal.log")
	if err != nil || s.Close() != nil || os.Remove(walPath) != nil || os.Mkdir(walPath, 0o755) != nil {
		t.Fatalf("three flushed tables, then a directory for the WAL: %v", err)
	}
	fds := func() int { es, _ := os.ReadDir("/proc/self/fd"); return len(es) }
	before := fds()
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open succeeded with a directory for a WAL")
	}
	if after := fds(); after > before {
		t.Fatalf("failed Open left %d more descriptors open", after-before)
	}
}
