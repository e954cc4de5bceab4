package kvs

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"gowatchdog/internal/memtable"
	"gowatchdog/internal/sstable"
	"gowatchdog/internal/wal"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/checkers"
	"gowatchdog/internal/watchdog/wdio"
)

// watchdogKeyPrefix namespaces keys the indexer checker writes into the real
// memtable, so checking traffic can never collide with client data — the
// isolation requirement from §3.2 ("should not overwrite data produced from
// the normal execution").
const watchdogKeyPrefix = "__wd__/"

// InstallWatchdog registers the generated-style mimic checker suite for this
// store on d. The driver's factory must be the same factory configured as
// the store's WatchdogFactory, so the hooks on the main execution path feed
// these checkers' contexts. shadow receives all checker disk I/O.
//
// The six checkers mirror the kvs internals of Figure 1: indexer, WAL,
// disk flusher, compaction manager, replication engine, and the partition
// manager's fsck-style integrity check. Each one (a) mimics the component's
// vulnerable operations against the same environment (the shared fault
// points model the volume/network), and (b) runs on state captured by hooks
// at the Figure-2-style instrumentation points.
func (s *Store) InstallWatchdog(d *watchdog.Driver, shadow *wdio.FS) {
	d.Register(s.flusherChecker(shadow))
	// The compaction checker's reduced operation is self-contained (it
	// merges its own shadow tables), so it needs no hook-fed state and runs
	// from the start.
	d.Register(s.compactionChecker(shadow), watchdog.WithContext(readyContext()))
	d.Register(s.walChecker(shadow))
	d.Register(s.indexerChecker())
	// The fsck-style partition check reads whole tables (each new one, and
	// one old one per run), so it runs at a tenth of the default cadence —
	// the paper's "we need to prioritize checking with limited resources".
	d.Register(s.partitionChecker(), watchdog.WithContext(readyContext()),
		watchdog.Every(10*d.DefaultInterval()),
		watchdog.Timeout(10*d.DefaultTimeout()))
	if s.repl != nil {
		d.Register(s.replChecker())
	}
}

// The mimic checkers' pinpoints: each names the main-program call whose
// failure the checker's own failure stands for (§3.2). A test holds every
// File:Line to a line that makes the Op's call, so they cannot drift.
var (
	flusherSite    = watchdog.Site{Function: "kvs.(*Store).FlushPartition", Op: "sstable.Write", File: "internal/kvs/flush.go", Line: 68}
	compactionSite = watchdog.Site{Function: "kvs.(*Store).CompactPartition", Op: "sstable.Merge", File: "internal/kvs/flush.go", Line: 167}
	walSite        = watchdog.Site{Function: "kvs.(*Store).appendMutation", Op: "wal.Append", File: "internal/kvs/store.go", Line: 450}
	indexerSite    = watchdog.Site{Function: "kvs.(*partition).applyToMem", Op: "memtable.Put", File: "internal/kvs/partition.go", Line: 227}
	partitionSite  = watchdog.Site{Function: "kvs.(*Store).verifyPartition", Op: "sstable.VerifyChecksum", File: "internal/kvs/flush.go", Line: 334}
	replSite       = watchdog.Site{Function: "kvs.(*replicator).sendOne", Op: "net.Write", File: "internal/kvs/replication.go", Line: 130}
)

func readyContext() *watchdog.Context {
	ctx := watchdog.NewContext()
	ctx.MarkReady()
	return ctx
}

// flusherChecker mimics the disk flusher: it writes a small SSTable with the
// last flushed sample to the shadow filesystem, re-opens it, and validates
// the checksum — real disk I/O through the same fault point as the flusher.
func (s *Store) flusherChecker(shadow *wdio.FS) watchdog.Checker {
	return watchdog.NewChecker("kvs.flusher", func(ctx *watchdog.Context) error {
		sample := ctx.GetBytes("sample")
		if len(sample) == 0 {
			sample = []byte("wd-flush-probe")
		}
		return watchdog.Op(ctx, flusherSite, func() error {
			if err := s.inj.Fire(FaultFlushWrite); err != nil {
				return err
			}
			rel := fmt.Sprintf("flusher/p%d.sst", ctx.GetInt("partition"))
			path, err := shadow.PreparePath(rel)
			if err != nil {
				return err
			}
			entries := []memtable.Entry{{Key: []byte(watchdogKeyPrefix + "flush"), Value: sample}}
			if err := sstable.Write(path, entries); err != nil {
				return err
			}
			r, err := sstable.Open(path)
			if err != nil {
				return err
			}
			defer r.Close()
			defer shadow.Remove(rel)
			return r.VerifyChecksum()
		})
	})
}

// compactionChecker mimics the compaction manager: it merges two tiny
// SSTables in the shadow and validates the output, passing through the
// compaction fault point.
func (s *Store) compactionChecker(shadow *wdio.FS) watchdog.Checker {
	m := &shadowMerge{shadow: shadow}
	return watchdog.NewChecker("kvs.compaction", func(ctx *watchdog.Context) error {
		return watchdog.Op(ctx, compactionSite, func() error {
			if err := s.inj.Fire(FaultCompactMerge); err != nil {
				return err
			}
			return m.run()
		})
	})
}

// shadowMerge is the compaction checker's state. Its input tables never
// change, so they are written once and rewritten only after a run fails;
// every run still opens them, merges (write and fsync) and re-opens the
// output. mu serializes runs: CheckNow may overlap a scheduled one.
type shadowMerge struct {
	shadow  *wdio.FS
	mu      sync.Mutex
	written bool // the inputs are on the shadow
}

const mergeARel, mergeBRel, mergeOutRel = "compact/a.sst", "compact/b.sst", "compact/out.sst"

func (m *shadowMerge) run() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.merge()
	if err != nil && m.written {
		// The inputs may be what failed: write them afresh next run.
		m.written = false
		m.shadow.Remove(mergeARel)
		m.shadow.Remove(mergeBRel)
	}
	return err
}

func (m *shadowMerge) merge() error {
	aPath, err := m.shadow.PreparePath(mergeARel)
	if err != nil {
		return err
	}
	bPath, _ := m.shadow.Path(mergeBRel)
	outPath, _ := m.shadow.Path(mergeOutRel)
	if !m.written {
		if err := sstable.Write(aPath, []memtable.Entry{
			{Key: []byte("k1"), Value: []byte("new")},
		}); err != nil {
			return err
		}
		if err := sstable.Write(bPath, []memtable.Entry{
			{Key: []byte("k1"), Value: []byte("old")},
			{Key: []byte("k2"), Value: []byte("keep")},
		}); err != nil {
			return err
		}
		m.written = true
	}
	ra, err := sstable.Open(aPath)
	if err != nil {
		return err
	}
	defer ra.Close()
	rb, err := sstable.Open(bPath)
	if err != nil {
		return err
	}
	defer rb.Close()
	if err := sstable.Merge(outPath, []*sstable.Reader{ra, rb}, true); err != nil {
		return err
	}
	out, err := sstable.Open(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	v, _, ok, err := out.Get([]byte("k1"))
	if err != nil {
		return err
	}
	if !ok || string(v) != "new" {
		return fmt.Errorf("merge produced %q for k1, want \"new\"", v)
	}
	return nil
}

// walChecker mimics the WAL appender: it appends the last logged record to a
// shadow WAL, syncs, and verifies the frames the run appended.
func (s *Store) walChecker(shadow *wdio.FS) watchdog.Checker {
	w := &shadowWAL{shadow: shadow, logs: make(map[int64]*shadowLog)}
	s.onClose(w.close)
	return watchdog.NewChecker("kvs.wal", func(ctx *watchdog.Context) error {
		rec := ctx.GetBytes("record")
		if len(rec) == 0 {
			rec = encodeRecord(record{op: opSet, key: []byte(watchdogKeyPrefix + "wal"), value: []byte("probe")})
		}
		pid := ctx.GetInt("partition")
		return watchdog.Op(ctx, walSite, func() error {
			if err := s.inj.Fire(FaultWALAppend); err != nil {
				return err
			}
			return w.run(pid, rec)
		})
	})
}

// shadowWAL is the WAL checker's state: one shadow log per partition, kept
// open between runs with the offset it is verified up to, so a run reads
// back only its own record. A failed run drops its log; the next one
// reopens it, which truncates any torn tail, and verifies it whole. mu
// serializes runs: CheckNow may overlap a scheduled one.
type shadowWAL struct {
	shadow *wdio.FS
	mu     sync.Mutex
	logs   map[int64]*shadowLog
	closed bool // the store is closed: runs open and close their log
}

type shadowLog struct {
	log      *wal.Log
	verified int64 // offset VerifyFrom has reached
}

func (w *shadowWAL) run(pid int64, rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	sl := w.logs[pid]
	if sl == nil {
		path, err := w.shadow.PreparePath(fmt.Sprintf("wal/p%d.log", pid))
		if err != nil {
			return err
		}
		l, err := wal.Open(path)
		if err != nil {
			return err
		}
		sl = &shadowLog{log: l}
		if w.closed {
			defer l.Close()
		} else {
			w.logs[pid] = sl
		}
	}
	err := sl.appendVerify(rec)
	if err != nil {
		sl.log.Close()
		delete(w.logs, pid)
	}
	return err
}

func (sl *shadowLog) appendVerify(rec []byte) (err error) {
	if err := sl.log.Append(rec); err != nil {
		return err
	}
	if err := sl.log.Sync(); err != nil {
		return err
	}
	if sl.verified, err = sl.log.VerifyFrom(sl.verified); err != nil {
		return err
	}
	// Keep the shadow WAL bounded.
	if sl.log.Size() > 1<<20 {
		sl.verified = 0
		return sl.log.Reset()
	}
	return nil
}

// close releases the shadow logs when the store closes.
func (w *shadowWAL) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for pid, sl := range w.logs {
		sl.log.Close()
		delete(w.logs, pid)
	}
}

// indexerChecker mimics the indexer on the real memtable under a reserved
// key namespace: put, get-back-verify, delete — the §3.2 example of checkers
// that "retrieve or insert some keys" without touching client data.
func (s *Store) indexerChecker() watchdog.Checker {
	return watchdog.NewChecker("kvs.indexer", func(ctx *watchdog.Context) error {
		// Probe the partition that handled the most recent real mutation.
		pid := int(ctx.GetInt("partition"))
		if pid < 0 || pid >= len(s.parts) {
			pid = 0
		}
		p := s.parts[pid]
		key := []byte(fmt.Sprintf("%sindexer/p%d", watchdogKeyPrefix, pid))
		val := []byte("wd-index-probe")
		return watchdog.Op(ctx, indexerSite, func() error {
			// Snapshot the live memtable under the partition lock; a flush
			// in progress means the partition is busy, not broken — skip
			// this round rather than contend (the flusher checker owns that
			// failure mode).
			if !p.mu.TryLock() {
				return nil
			}
			mem := p.mem
			p.mu.Unlock()
			if err := s.inj.Fire(FaultIndexerPut); err != nil {
				return err
			}
			mem.Put(key, val)
			if err := s.inj.Fire(FaultIndexerGet); err != nil {
				return err
			}
			got, tomb, ok := mem.Get(key)
			if !ok || tomb || string(got) != string(val) {
				return fmt.Errorf("indexer probe read back %q (ok=%v tomb=%v)", got, ok, tomb)
			}
			mem.Delete(key)
			return nil
		})
	})
}

// partitionChecker is the heavyweight fsck-style check: WAL frame and
// SSTable checksum validation across all partitions, run concurrently with
// normal execution (§3.1 "complex fsck-like checks in parallel").
func (s *Store) partitionChecker() watchdog.Checker {
	v := &partitionVerifier{s: s, marks: make([]verifyMark, len(s.parts))}
	return watchdog.NewChecker("kvs.partition", func(ctx *watchdog.Context) error {
		return watchdog.Op(ctx, partitionSite, v.run)
	})
}

// partitionVerifier is the partition checker's state. Each run verifies,
// per partition, the WAL frames appended and the tables installed since the
// last run (verifyPartition), then re-reads one already-checked table,
// round robin over all partitions' tables, so bit rot in a table it passed
// long ago is still found. mu serializes runs: CheckNow may overlap a
// scheduled one.
type partitionVerifier struct {
	s     *Store
	mu    sync.Mutex
	marks []verifyMark // per partition
	next  int          // round-robin position of the next re-check
}

func (v *partitionVerifier) run() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	type heldTable struct {
		pid int
		t   *sstable.Reader
	}
	var all []heldTable
	for i := range v.s.parts {
		mark, tables, err := v.s.verifyPartition(i, v.marks[i])
		if err != nil {
			return err
		}
		defer tables.release()
		v.marks[i] = mark
		for _, t := range tables.tables {
			all = append(all, heldTable{i, t})
		}
	}
	if len(all) == 0 {
		return nil
	}
	h := all[v.next%len(all)]
	v.next++
	if err := h.t.VerifyChecksum(); err != nil {
		v.marks[h.pid].checked = nil // re-verified, and reported, every run until repaired
		return fmt.Errorf("verify p%d: %w", h.pid, err)
	}
	return nil
}

// replChecker mimics the replication engine: it dials the replica and ships
// a zero-length frame (acknowledged but not applied), passing through the
// replication fault point — a real network round trip on the same path.
func (s *Store) replChecker() watchdog.Checker {
	return watchdog.NewChecker("kvs.repl", func(ctx *watchdog.Context) error {
		addr := ctx.GetString("addr")
		if addr == "" {
			addr = s.repl.addr
		}
		return watchdog.Op(ctx, replSite, func() error {
			if err := s.inj.Fire(FaultReplSend); err != nil {
				return err
			}
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 0)
			if _, err := conn.Write(hdr[:]); err != nil {
				return err
			}
			var ack [1]byte
			if _, err := io.ReadFull(conn, ack[:]); err != nil {
				return err
			}
			if ack[0] != replAck {
				return fmt.Errorf("bad ack %#x", ack[0])
			}
			return nil
		})
	})
}

// MimicCheckers returns the generated-style mimic suite in coverage order
// (broadest first), paired with whether each needs a hook-fed context.
// Experiments use it to register checker subsets; InstallWatchdog registers
// the full set.
func (s *Store) MimicCheckers(shadow *wdio.FS) []struct {
	Checker   watchdog.Checker
	HookGated bool
} {
	out := []struct {
		Checker   watchdog.Checker
		HookGated bool
	}{
		{s.partitionChecker(), false},
		{s.flusherChecker(shadow), true},
		{s.compactionChecker(shadow), false},
		{s.walChecker(shadow), true},
		{s.indexerChecker(), true},
	}
	if s.repl != nil {
		out = append(out, struct {
			Checker   watchdog.Checker
			HookGated bool
		}{s.replChecker(), true})
	}
	return out
}

// InstallSignalCheckers registers the lightweight signal-checker suite
// (Table 2's middle row) alongside the mimic suite: resource indicators and
// progress/queue heuristics over the store's metric registry. These are
// cheap and easy to construct but trade accuracy for it — see experiment
// E2.
func (s *Store) InstallSignalCheckers(d *watchdog.Driver, heapLimit uint64, goroutineLimit int) {
	ready := func() *watchdog.Context {
		c := watchdog.NewContext()
		c.MarkReady()
		return c
	}
	if heapLimit > 0 {
		d.Register(checkers.HeapLimit("kvs.signal.heap", heapLimit),
			watchdog.WithContext(ready()))
	}
	if goroutineLimit > 0 {
		d.Register(checkers.GoroutineLimit("kvs.signal.goroutines", goroutineLimit),
			watchdog.WithContext(ready()))
	}
	d.Register(checkers.CounterRising("kvs.signal.errors", "error-rate",
		s.mets.Counter("kvs.errors")), watchdog.WithContext(ready()))
	d.Register(checkers.GaugeAbove("kvs.signal.repl-queue", "repl-queue",
		s.mets.Gauge("kvs.repl.queue"), 896), watchdog.WithContext(ready()))
	d.Register(checkers.SchedulerDelay("kvs.signal.sched", 5*time.Millisecond,
		250*time.Millisecond, nil, nil), watchdog.WithContext(ready()))
}

// ShadowDirFor returns a conventional shadow directory path for a store
// rooted at dir.
func ShadowDirFor(dir string) string { return filepath.Join(dir, "wd-shadow") }
