package kvs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/memtable"
	"gowatchdog/internal/sstable"
	"gowatchdog/internal/wal"
)

// partition is one key range [lo, hi) with its own memtable, write-ahead
// log, SSTable stack (newest first), and group committer. The partition
// manager keeps partitions sorted by range.
//
// Lock order: writeGate before the others; gcCommitMu, gcMu and mu are
// never held together. Writers hold writeGate.RLock only while they append
// to the WAL and the open commit batch; they wait for the covering sync
// without it (awaitCommit). The flusher, the repairer and close take
// writeGate.Lock and then drain the committer, so a memtable drain or WAL
// reset never interleaves with an appended-but-unpublished mutation.
type partition struct {
	id  int
	lo  []byte // inclusive; nil = no lower bound
	hi  []byte // exclusive; nil = no upper bound
	dir string // empty in in-memory mode

	// writeGate serializes WAL appends against flush/repair. Striped per
	// partition, so group commits on different partitions proceed
	// independently.
	writeGate sync.RWMutex

	mu         sync.Mutex
	mem        *memtable.Table
	log        *wal.Log        // nil in in-memory mode
	tables     *tableVersion   // current SSTable stack; replaced, never mutated
	retired    []*tableVersion // replaced stacks not yet reaped, oldest first
	nextID     int
	compacting bool // at most one compaction per partition at a time

	// Group-commit state. gcMu orders WAL appends with the open batch so
	// publish order equals log order; gcCommitMu guards leader election and
	// every batch's outcome.
	gcMu       sync.Mutex
	gcOpen     *commitBatch // the batch appends join; never nil
	gcCommitMu sync.Mutex
	gcCond     *sync.Cond
	gcSyncing  bool // a leader is inside sync+publish
}

// commitBatch is a run of consecutive WAL records that one fsync covers,
// and the outcome of that fsync. A pointer to the batch is the commit
// ticket of every record in it: the outcome belongs to the batch, so a
// waiter that wakes after later batches succeeded still gets its own
// batch's error, and nothing refers to log offsets, which rewind when a
// flush resets the WAL.
type commitBatch struct {
	p    *partition
	recs []pendingRecord // log order; appended under gcMu until a leader takes the batch
	done bool            // guarded by gcCommitMu, as is err
	err  error
}

// pendingRecord is a logged mutation waiting for its covering sync.
type pendingRecord struct {
	rec  record // key and value point into the encoded payload (encodeOwned)
	repl []byte // payload to stream to the replica once committed; nil = not replicated
}

// tableVersion is an immutable SSTable stack, newest table first. Every
// get, scan, verify or compaction counts itself in readers while it uses
// the stack, so a table that a compaction or repair drops stays open until
// the last reader that could see it has finished (reapTables).
type tableVersion struct {
	tables  []*sstable.Reader
	readers atomic.Int32
	dropped []*sstable.Reader // set when replaced: tables the successor left out
}

// acquire counts the caller as a reader of v, release uncounts it. Callers
// of acquire hold p.mu with v current, so a retired version never gains
// readers. An empty stack has nothing to keep open: memtable-only reads
// stay off the shared counter's cache line.
func (v *tableVersion) acquire() {
	if len(v.tables) > 0 {
		v.readers.Add(1)
	}
}

func (v *tableVersion) release() {
	if len(v.tables) > 0 {
		v.readers.Add(-1)
	}
}

// acquireTables returns the current memtable and table stack, the latter
// counted as in use; the caller releases it.
func (p *partition) acquireTables() (*memtable.Table, *tableVersion) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tables.acquire()
	return p.mem, p.tables
}

// installTables makes tables the current stack and retires the old one;
// dropped lists the old stack's tables that the new one leaves out. Callers
// hold p.mu.
func (p *partition) installTables(tables, dropped []*sstable.Reader) {
	p.tables.dropped = dropped
	p.retired = append(p.retired, p.tables)
	p.tables = &tableVersion{tables: tables}
}

// reapTables closes and unlinks the dropped tables that no reader can reach
// any more. A dropped table may be open in any older version as well, so
// versions are reaped oldest first and the first one still in use stops the
// sweep. Only maintenance paths call this: a read never pays for an unlink.
// (A quarantined table was renamed away already; its unlink finds nothing.)
// force reaps versions still in use too, for close.
func (p *partition) reapTables(force bool) {
	p.mu.Lock()
	n := 0
	for n < len(p.retired) && (force || p.retired[n].readers.Load() == 0) {
		n++
	}
	reap := p.retired[:n:n]
	p.retired = p.retired[n:]
	p.mu.Unlock()
	for _, v := range reap {
		for _, t := range v.dropped {
			t.Close()
			os.Remove(t.Path())
		}
	}
}

// newPartition opens or recovers a partition rooted at dir (or in memory
// when dir is empty).
func newPartition(id int, lo, hi []byte, dir string) (*partition, error) {
	p := &partition{id: id, lo: lo, hi: hi, dir: dir, mem: memtable.New(), nextID: 1,
		tables: &tableVersion{}}
	p.gcOpen = &commitBatch{p: p}
	p.gcCond = sync.NewCond(&p.gcCommitMu)
	if dir == "" {
		return p, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvs: partition %d: %w", id, err)
	}
	if err := p.loadTables(); err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	p.log = log
	// Recover unflushed mutations.
	if err := log.Replay(func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		p.applyToMem(rec)
		return nil
	}); err != nil {
		log.Close()
		return nil, fmt.Errorf("kvs: partition %d replay: %w", id, err)
	}
	return p, nil
}

// loadTables opens existing SSTables newest-first.
func (p *partition) loadTables() error {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return err
	}
	type numbered struct {
		id   int
		path string
	}
	var found []numbered
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".sst"))
		if err != nil {
			continue
		}
		found = append(found, numbered{id: id, path: filepath.Join(p.dir, name)})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id > found[j].id }) // newest first
	var tables []*sstable.Reader
	for _, f := range found {
		r, err := sstable.Open(f.path)
		if err != nil {
			for _, t := range tables {
				t.Close()
			}
			return fmt.Errorf("kvs: open %s: %w", f.path, err)
		}
		tables = append(tables, r)
		if f.id >= p.nextID {
			p.nextID = f.id + 1
		}
	}
	p.tables = &tableVersion{tables: tables}
	return nil
}

// applyToMem applies rec to the memtable without logging.
func (p *partition) applyToMem(rec record) {
	if rec.op == opDel {
		p.mem.Delete(rec.key)
	} else {
		p.mem.Put(rec.key, rec.value)
	}
}

// memBytes returns the live memtable's approximate footprint.
func (p *partition) memBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mem.ApproxBytes()
}

// appendPending is the first half of the group-commit write path: it
// appends payload to the WAL (buffered, ordered by gcMu) and queues rec on
// the open batch, which it returns as the record's commit ticket.
//
// Callers must hold p.writeGate.RLock.
func (p *partition) appendPending(payload []byte, rec pendingRecord) (*commitBatch, error) {
	p.gcMu.Lock()
	defer p.gcMu.Unlock()
	if err := p.log.Append(payload); err != nil {
		return nil, err
	}
	b := p.gcOpen
	b.recs = append(b.recs, rec)
	return b, nil
}

// awaitCommit is the second half: it returns once batch b is committed,
// with the batch's outcome. Any number of goroutines may await
// the same batch, holding no lock. The first waiter to find no commit in
// flight becomes the leader: it optionally waits out the latency budget so
// more appends can pile on, takes the open batch, issues ONE fsync for it,
// publishes its records to the memtable in log order, and wakes everyone.
// Records of a failed sync are never published, so the memtable always
// trails the durable WAL prefix — a crash can lose only mutations whose
// callers saw an error. Successful records are counted and handed to the
// replication stream here, after the sync, in log order.
//
// Batches are taken in order and an unfinished batch that no leader holds
// is necessarily the open one, so the batch a leader takes is b itself and
// awaiting a partition's newest ticket covers all its earlier ones.
func (s *Store) awaitCommit(b *commitBatch) error {
	p := b.p
	p.gcCommitMu.Lock()
	defer p.gcCommitMu.Unlock()
	for !b.done {
		if p.gcSyncing {
			p.gcCond.Wait()
			continue
		}
		p.gcSyncing = true
		p.gcCommitMu.Unlock()
		if s.cfg.GroupCommitBudget > 0 {
			time.Sleep(s.cfg.GroupCommitBudget) // bounded coalescing window
		}
		p.gcMu.Lock()
		batch, log := p.gcOpen, p.log
		p.gcOpen = &commitBatch{p: p}
		p.gcMu.Unlock()
		var err error
		if len(batch.recs) > 0 { // flush and close drain through here with nothing queued
			s.commitSyncs.Inc()
			if err = log.Sync(); err == nil {
				s.publish(p, batch.recs)
			}
		}
		batch.recs = nil // the outcome outlives the batch in its tickets; the payloads need not
		p.gcCommitMu.Lock()
		p.gcSyncing = false
		batch.done, batch.err = true, err
		p.gcCond.Broadcast()
	}
	return b.err
}

// publish makes a synced batch visible: into the memtable, the mutation
// counts and the replication stream, all in log order.
func (s *Store) publish(p *partition, recs []pendingRecord) {
	p.mu.Lock()
	for _, r := range recs {
		p.applyToMem(r.rec)
	}
	p.mu.Unlock()
	s.commitRecords.Add(int64(len(recs)))
	s.mutations.Add(int64(len(recs)))
	for _, r := range recs {
		if r.repl != nil {
			s.repl.enqueue(r.repl)
		}
	}
}

// committed reports whether awaitCommit on b would return without waiting.
func (b *commitBatch) committed() bool {
	b.p.gcCommitMu.Lock()
	defer b.p.gcCommitMu.Unlock()
	return b.done
}

// drainCommits commits everything appended to p so far. Callers hold
// p.writeGate.Lock, so nothing is appended meanwhile and on return no
// record is pending and no leader is running.
func (s *Store) drainCommits(p *partition) {
	p.gcMu.Lock()
	b := p.gcOpen
	p.gcMu.Unlock()
	s.awaitCommit(b) // each record's own waiter reports the batch's error
}

// owns reports whether key falls in this partition's range.
func (p *partition) owns(key []byte) bool {
	if p.lo != nil && bytes.Compare(key, p.lo) < 0 {
		return false
	}
	if p.hi != nil && bytes.Compare(key, p.hi) >= 0 {
		return false
	}
	return true
}

// get resolves key through the memtable and the SSTable stack.
func (p *partition) get(key []byte) ([]byte, bool, error) {
	mem, tables := p.acquireTables()
	defer tables.release()
	if v, tomb, ok := mem.Get(key); ok {
		if tomb {
			return nil, false, nil
		}
		return v, true, nil
	}
	for _, t := range tables.tables {
		v, tomb, ok, err := t.Get(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// scanCursor is one source of a bounded scan merge: cur is the next
// in-range entry (valid while ok), advanced lazily.
type scanCursor struct {
	cur memtable.Entry
	ok  bool
	// next advances past the current entry; start is the next seek key.
	next func(start []byte) (memtable.Entry, bool, error)
}

func (c *scanCursor) advance() error {
	// Seek strictly past the current key: its successor in byte order is
	// the key with a zero byte appended.
	seek := append(append([]byte(nil), c.cur.Key...), 0)
	e, ok, err := c.next(seek)
	c.cur, c.ok = e, ok
	return err
}

// scan merges live entries in [start, end) across the memtable and tables,
// newest shadowing oldest, up to limit results (0 = unlimited). It is a
// k-way merge over sorted cursors, so a limited scan touches O(limit)
// entries per source instead of materializing the whole range — the
// difference between a microsecond SCAN and one that reads the entire
// partition under load.
func (p *partition) scan(start, end []byte, limit int) ([]memtable.Entry, error) {
	mem, version := p.acquireTables()
	defer version.release()
	tables := version.tables

	// Cursors ordered newest first (memtable, then tables newest-to-oldest):
	// on key ties the lowest cursor index wins.
	curs := make([]*scanCursor, 0, len(tables)+1)
	memNext := func(seek []byte) (memtable.Entry, bool, error) {
		e, ok := mem.Ceil(seek)
		return e, ok, nil
	}
	curs = append(curs, &scanCursor{next: memNext})
	for _, t := range tables {
		it := t.Seek(start)
		curs = append(curs, &scanCursor{next: func(_ []byte) (memtable.Entry, bool, error) {
			return it.Next()
		}})
	}
	// Prime every cursor at the range start.
	for _, c := range curs {
		e, ok, err := c.next(start)
		if err != nil {
			return nil, err
		}
		c.cur, c.ok = e, ok
	}

	var out []memtable.Entry
	for limit <= 0 || len(out) < limit {
		// Smallest key across cursors; newest source wins ties.
		var winner *scanCursor
		for _, c := range curs {
			if !c.ok {
				continue
			}
			if winner == nil || bytes.Compare(c.cur.Key, winner.cur.Key) < 0 {
				winner = c
			}
		}
		if winner == nil || (end != nil && bytes.Compare(winner.cur.Key, end) >= 0) {
			break
		}
		e := winner.cur
		// Consume this key from every cursor holding it (the winner's entry
		// shadows the older ones).
		for _, c := range curs {
			if c.ok && bytes.Equal(c.cur.Key, e.Key) {
				if err := c.advance(); err != nil {
					return nil, err
				}
			}
		}
		if !e.Tombstone {
			out = append(out, e)
		}
	}
	return out, nil
}

// close releases the WAL and table readers. The caller has drained the
// committer under writeGate.Lock. p.log stays set: an append or sync that
// arrives after close fails with the log's own "closed" error.
func (p *partition) close() error {
	// Whatever readers remain, dropped tables must not outlive the store: a
	// reopen would load them as live and resurrect keys their compaction
	// dropped the tombstones of.
	p.reapTables(true)

	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	if p.log != nil {
		firstErr = p.log.Close()
	}
	for _, t := range p.tables.tables {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.tables = &tableVersion{}
	return firstErr
}
