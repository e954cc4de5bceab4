package kvs

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

// TestVerifyPartitionNoFalsePositiveUnderFlush races the incremental
// kvs.partition checker against a writer and a flush-and-compact loop that
// keeps resetting the WAL and replacing the table stack under it. A WAL
// frame that a flush's reset truncates mid-read is the main program's own
// maintenance, not corruption: every report must be healthy.
func TestVerifyPartitionNoFalsePositiveUnderFlush(t *testing.T) {
	s, d := watchedStore(t, func(c *Config) {
		c.Partitions = 1
		c.Sync = SyncNone
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		val := bytes.Repeat([]byte("v"), 256)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Set([]byte(fmt.Sprintf("k%06d", i%4096)), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if err := s.FlushPartition(0, true); err != nil {
				t.Error(err)
				return
			}
			if err := s.CompactPartition(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	runs := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); runs++ {
		rep, err := d.CheckNow("kvs.partition")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != watchdog.StatusHealthy {
			close(stop)
			wg.Wait()
			t.Fatalf("run %d on a healthy store: %v: %v", runs, rep.Status, rep.Err)
		}
	}
	close(stop)
	wg.Wait()
	if runs == 0 {
		t.Fatal("the checker never ran")
	}
}

// walPath returns partition i's live WAL file.
func walPath(s *Store, i int) string {
	p := s.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.Path()
}

// TestVerifyDetectsFlipPastWALWatermark: the checker skips the WAL frames
// it verified last run, but a flip in a frame appended since is reported on
// the very next run, and on every run after until it is repaired.
func TestVerifyDetectsFlipPastWALWatermark(t *testing.T) {
	s, d := watchedStore(t, func(c *Config) { c.Partitions = 1 })
	s.Set([]byte("old"), []byte("verified"))
	if rep, _ := d.CheckNow("kvs.partition"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("first run: %v: %v", rep.Status, rep.Err)
	}
	s.Set([]byte("new"), []byte("appended after the watermark"))
	path := walPath(s, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		rep, _ := d.CheckNow("kvs.partition")
		if rep.Status != watchdog.StatusError || !strings.Contains(fmt.Sprint(rep.Err), "wal") {
			t.Fatalf("run %d after the flip: %v: %v", run, rep.Status, rep.Err)
		}
	}
	if _, err := s.RepairPartition(0); err != nil {
		t.Fatal(err)
	}
	if rep, _ := d.CheckNow("kvs.partition"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("after repair: %v: %v", rep.Status, rep.Err)
	}
}

// TestVerifyRoundRobinFindsOldTableRot: a table the checker passed once is
// not re-read every run, but one table is re-read per run in turn, so rot in
// an already-verified table is reported within len(tables) runs — and then
// on every run until repaired.
func TestVerifyRoundRobinFindsOldTableRot(t *testing.T) {
	s, d := watchedStore(t, func(c *Config) { c.Partitions = 1 })
	for i := 0; i < 3; i++ {
		s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("flushed"))
		s.FlushAll(true)
	}
	paths := s.TablePaths(0)
	if len(paths) != 3 {
		t.Fatalf("tables = %v", paths)
	}
	if rep, _ := d.CheckNow("kvs.partition"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("first run: %v: %v", rep.Status, rep.Err)
	}
	corruptFile(t, paths[1])
	found := -1
	for run := 0; run < len(paths) && found < 0; run++ {
		if rep, _ := d.CheckNow("kvs.partition"); rep.Status == watchdog.StatusError {
			found = run
		}
	}
	if found < 0 {
		t.Fatalf("rot in an old table unreported after %d runs", len(paths))
	}
	if rep, _ := d.CheckNow("kvs.partition"); rep.Status != watchdog.StatusError {
		t.Fatalf("run after detection: %v, want error until repaired", rep.Status)
	}
	if n, err := s.RepairPartition(0); err != nil || n != 1 {
		t.Fatalf("repair quarantined %d: %v", n, err)
	}
	for run := 0; run < len(paths); run++ {
		if rep, _ := d.CheckNow("kvs.partition"); rep.Status != watchdog.StatusHealthy {
			t.Fatalf("run %d after repair: %v: %v", run, rep.Status, rep.Err)
		}
	}
}

// TestVerifyIncrementalCheckersFailOnFaultAndClear: keeping state between
// runs must not swallow the shared-fate fault points. Each checker, with its
// incremental state warm, fails on the first run after its fault is armed
// and is healthy on the first run after it is disarmed.
func TestVerifyIncrementalCheckersFailOnFaultAndClear(t *testing.T) {
	s, d := watchedStore(t, nil)
	for i := 0; i < 2*hookSampleEvery; i++ {
		s.Set([]byte{byte(i)}, []byte("feeds the wal hook"))
	}
	s.FlushAll(true)
	for _, c := range []struct{ point, checker string }{
		{FaultWALAppend, "kvs.wal"},
		{FaultCompactMerge, "kvs.compaction"},
		{FaultSSTableRead, "kvs.partition"},
	} {
		if rep, _ := d.CheckNow(c.checker); rep.Status != watchdog.StatusHealthy {
			t.Fatalf("%s warm-up: %v: %v", c.checker, rep.Status, rep.Err)
		}
		s.Injector().Arm(c.point, faultinject.Fault{Kind: faultinject.Error})
		if rep, _ := d.CheckNow(c.checker); rep.Status != watchdog.StatusError {
			t.Fatalf("%s with %s armed: %v", c.checker, c.point, rep.Status)
		}
		s.Injector().Disarm(c.point)
		if rep, _ := d.CheckNow(c.checker); rep.Status != watchdog.StatusHealthy {
			t.Fatalf("%s after disarm: %v: %v", c.checker, rep.Status, rep.Err)
		}
	}
}

// TestVerifyShadowWALBounded: the kvs.wal checker's shadow log stays open
// and grows by one record a run, but never past 1 MiB plus one record.
func TestVerifyShadowWALBounded(t *testing.T) {
	s, d := watchedStore(t, nil)
	rec := bytes.Repeat([]byte("r"), 64<<10)
	d.Factory().Context("kvs.wal").PutAll(map[string]any{"partition": 0, "record": rec})
	path := filepath.Join(s.cfg.Dir, "wd-shadow", "wal", "p0.log")
	limit := int64(1<<20 + 8 + len(rec))
	shrank := false
	var last int64
	for run := 0; run < 40; run++ {
		if rep, _ := d.CheckNow("kvs.wal"); rep.Status != watchdog.StatusHealthy {
			t.Fatalf("run %d: %v: %v", run, rep.Status, rep.Err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Fatalf("run %d: shadow WAL is %d bytes, bound %d", run, fi.Size(), limit)
		}
		shrank = shrank || fi.Size() < last
		last = fi.Size()
	}
	if !shrank {
		t.Fatal("the shadow WAL was never reset")
	}
}

// TestMimicSitesPointAtTheirCalls keeps the hand-written pinpoints honest:
// each Site's File:Line must make the Op's call, inside the function the
// Site names.
func TestMimicSitesPointAtTheirCalls(t *testing.T) {
	fnName := regexp.MustCompile(`^kvs\.(?:\(\*(\w+)\)\.)?(\w+)$`)
	for _, site := range []watchdog.Site{flusherSite, compactionSite, walSite, indexerSite, partitionSite, replSite} {
		lines := readLines(t, filepath.Base(site.File))
		if site.Line < 1 || site.Line > len(lines) {
			t.Errorf("%s: line %d out of range", site.Op, site.Line)
			continue
		}
		line := lines[site.Line-1]
		call := "." + site.Op[strings.LastIndex(site.Op, ".")+1:] + "("
		if !strings.Contains(line, call) {
			t.Errorf("%s:%d is %q, which makes no %s call", site.File, site.Line, strings.TrimSpace(line), call)
		}
		m := fnName.FindStringSubmatch(site.Function)
		if m == nil {
			t.Errorf("unparsable Function %q", site.Function)
			continue
		}
		decl := regexp.MustCompile(`^func ` + m[2] + `\(`)
		if m[1] != "" {
			decl = regexp.MustCompile(`^func \(\w+ \*` + m[1] + `\) ` + m[2] + `\(`)
		}
		enclosing := ""
		for i := site.Line - 1; i >= 0; i-- {
			if strings.HasPrefix(lines[i], "func ") {
				enclosing = lines[i]
				break
			}
		}
		if !decl.MatchString(enclosing) {
			t.Errorf("%s:%d is inside %q, not %s", site.File, site.Line, enclosing, site.Function)
		}
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
