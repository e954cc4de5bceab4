package kvs

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"gowatchdog/internal/memtable"
	"gowatchdog/internal/sstable"
	"gowatchdog/internal/wal"
)

// FlushAll flushes every partition whose memtable crossed the threshold
// (or all non-empty memtables when force is true).
func (s *Store) FlushAll(force bool) {
	for i := range s.parts {
		if err := s.FlushPartition(i, force); err != nil {
			s.mets.Counter("kvs.flush.errors").Inc()
		}
	}
}

// FlushPartition drains partition i's memtable into a new SSTable, then
// resets the WAL. It is a no-op in in-memory mode — which is why the
// flusher's watchdog hook never fires there, keeping the disk-flusher
// checker's context unready instead of producing spurious reports (§3.1).
func (s *Store) FlushPartition(i int, force bool) error {
	p := s.parts[i]
	if p.dir == "" {
		return nil
	}
	if !force && p.memBytes() < s.cfg.FlushThresholdBytes {
		return nil
	}
	// The write gate excludes WAL appends for the whole flush, and draining
	// the committer behind it publishes (or fails) every record already
	// appended, so the memtable snapshot and the WAL reset can never
	// interleave with an appended-but-unpublished group commit.
	p.writeGate.Lock()
	defer p.writeGate.Unlock()
	s.drainCommits(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	entries := p.mem.Entries()
	if len(entries) == 0 {
		return nil
	}
	path := filepath.Join(p.dir, fmt.Sprintf("%06d.sst", p.nextID))

	// Watchdog hook: capture the flush arguments — partition, target path,
	// and a bounded sample of the batch — immediately before the vulnerable
	// disk write (the instrumentation point from Figure 2).
	s.hook("kvs.flusher", map[string]any{
		"partition": p.id,
		"dir":       p.dir,
		"path":      path,
		"entries":   len(entries),
		"sample":    sampleEntry(entries),
	})

	// Vulnerable operation: the SSTable write hits the disk. The fault
	// point models the volume, so any code writing this volume (including
	// the mimic checker's shadow write) shares its fate.
	if err := s.inj.Fire(FaultFlushWrite); err != nil {
		return fmt.Errorf("flush p%d: %w", p.id, err)
	}
	if err := sstable.Write(path, entries); err != nil {
		return fmt.Errorf("flush p%d: %w", p.id, err)
	}
	rdr, err := sstable.Open(path)
	if err != nil {
		return fmt.Errorf("flush p%d reopen: %w", p.id, err)
	}
	tables := append([]*sstable.Reader{rdr}, p.tables.tables...)
	p.installTables(tables, nil)
	p.nextID++
	if p.log != nil {
		if err := p.log.Reset(); err != nil {
			return fmt.Errorf("flush p%d wal reset: %w", p.id, err)
		}
	}
	p.mem = memtable.New()
	s.mets.Counter("kvs.flushes").Inc()
	s.tableGauges[p.id].Set(float64(len(tables)))
	s.memBytesGauges[p.id].Set(0)
	return nil
}

// sampleEntry returns a bounded key/value sample for checker payloads.
func sampleEntry(entries []memtable.Entry) []byte {
	if len(entries) == 0 {
		return nil
	}
	e := entries[0]
	sample := make([]byte, 0, 64)
	sample = append(sample, e.Key...)
	sample = append(sample, '=')
	v := e.Value
	if len(v) > 32 {
		v = v[:32]
	}
	sample = append(sample, v...)
	return sample
}

// CompactAll compacts every partition that accumulated enough SSTables.
func (s *Store) CompactAll() {
	for i := range s.parts {
		if err := s.CompactPartition(i); err != nil {
			s.mets.Counter("kvs.compaction.errors").Inc()
		}
	}
}

// CompactPartition merges partition i's SSTable stack into one table when
// it has at least CompactionMinTables tables. The merge itself runs outside
// the partition lock (tables are immutable), mirroring how a real
// compaction background task can wedge silently without blocking writes —
// the paper's canonical internal gray failure.
func (s *Store) CompactPartition(i int) error {
	p := s.parts[i]
	if p.dir == "" {
		return nil
	}
	// Every compaction tick also closes what earlier ones dropped while a
	// reader still held it.
	defer p.reapTables(false)
	p.mu.Lock()
	if p.compacting || len(p.tables.tables) < s.cfg.CompactionMinTables {
		p.mu.Unlock()
		return nil
	}
	// Serialize compactions per partition: the merge runs outside the lock,
	// so a second concurrent compaction would merge tables the first one is
	// about to remove.
	p.compacting = true
	defer func() {
		p.mu.Lock()
		p.compacting = false
		p.mu.Unlock()
	}()
	// Reading the stack keeps the victims open while they are merged,
	// whatever a concurrent repair drops.
	base := p.tables
	base.acquire()
	defer base.release() // runs before the reap above
	victims := base.tables
	outPath := filepath.Join(p.dir, fmt.Sprintf("%06d.sst", p.nextID))
	p.nextID++
	p.mu.Unlock()

	inputs := make([]string, len(victims))
	for j, v := range victims {
		inputs[j] = v.Path()
	}
	s.hook("kvs.compaction", map[string]any{
		"partition": p.id,
		"inputs":    inputs,
		"output":    outPath,
	})

	// Vulnerable operation: the bulk merge I/O.
	if err := s.inj.Fire(FaultCompactMerge); err != nil {
		return fmt.Errorf("compact p%d: %w", p.id, err)
	}
	if err := sstable.Merge(outPath, victims, true); err != nil {
		return fmt.Errorf("compact p%d: %w", p.id, err)
	}
	merged, err := sstable.Open(outPath)
	if err != nil {
		return fmt.Errorf("compact p%d reopen: %w", p.id, err)
	}

	p.mu.Lock()
	// Flushes may have prepended newer tables while we merged; replace only
	// the suffix we actually merged. A repair that quarantined one of the
	// victims meanwhile leaves no such suffix: give the merge up.
	cur := p.tables.tables
	keep := len(cur) - len(victims)
	if keep < 0 || !slices.Equal(cur[keep:], victims) {
		p.mu.Unlock()
		merged.Close()
		os.Remove(outPath)
		return fmt.Errorf("compact p%d: table stack changed during the merge", p.id)
	}
	newTables := append(append([]*sstable.Reader(nil), cur[:keep]...), merged)
	p.installTables(newTables, victims)
	p.mu.Unlock()
	s.mets.Counter("kvs.compactions").Inc()
	s.tableGauges[p.id].Set(float64(len(newTables)))
	return nil
}

// RepairPartition is the cheap-recovery path (§5.2 of the paper): guided by
// a watchdog alarm that localized corruption to this partition, it
// quarantines SSTables that fail checksum validation (renaming them with a
// .corrupt suffix and dropping them from the read path) and truncates a
// corrupt WAL back to its intact prefix. It returns how many tables were
// quarantined. Data covered by surviving tables and the memtable remains
// served throughout — no process restart.
func (s *Store) RepairPartition(i int) (int, error) {
	p := s.parts[i]
	// Exclude appends and finish the commits in flight: repair may swap the
	// WAL out from under the group committer otherwise.
	p.writeGate.Lock()
	defer p.writeGate.Unlock()
	s.drainCommits(p)
	defer p.reapTables(false) // after mu is released: closes the quarantined tables
	p.mu.Lock()
	defer p.mu.Unlock()
	var kept, corrupt []*sstable.Reader
	for _, t := range p.tables.tables {
		if err := t.VerifyChecksum(); err != nil {
			if renameErr := os.Rename(t.Path(), t.Path()+".corrupt"); renameErr != nil {
				return len(corrupt), fmt.Errorf("repair p%d: %w", p.id, renameErr)
			}
			corrupt = append(corrupt, t)
			continue
		}
		kept = append(kept, t)
	}
	quarantined := len(corrupt)
	if quarantined > 0 {
		p.installTables(kept, corrupt)
	}
	if p.log != nil {
		if err := p.log.Verify(); err != nil {
			// Reopen: wal.Open truncates everything past the last intact
			// frame. The memtable already holds the applied records.
			path := p.log.Path()
			p.log.Close()
			fresh, err := wal.Open(path)
			if err != nil {
				return quarantined, fmt.Errorf("repair p%d wal: %w", p.id, err)
			}
			p.log = fresh
		}
	}
	s.mets.Counter("kvs.repairs").Inc()
	s.tableGauges[p.id].Set(float64(len(kept)))
	return quarantined, nil
}

// TablePaths returns the file paths of partition i's SSTables, newest
// first; fault-injection experiments use it to corrupt tables in place.
func (s *Store) TablePaths(i int) []string {
	p := s.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.tables.tables))
	for j, t := range p.tables.tables {
		out[j] = t.Path()
	}
	return out
}

// TableCount returns the number of SSTables in partition i.
func (s *Store) TableCount(i int) int {
	p := s.parts[i]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.tables.tables)
}

// VerifyPartition runs the fsck-style partition check (§2, §3.3): it
// validates the WAL frames and every SSTable checksum in partition i. This
// is the heavyweight check the watchdog runs concurrently rather than
// in-place; the kvs.partition checker runs its incremental form.
func (s *Store) VerifyPartition(i int) error {
	_, tables, err := s.verifyPartition(i, verifyMark{})
	if err == nil {
		tables.release()
	}
	return err
}

// verifyMark is how far verification of one partition has got: its live
// WAL is intact up to off in generation gen of log, and every table in
// checked has passed its checksum. The zero value has verified nothing.
type verifyMark struct {
	log     *wal.Log
	gen     uint64
	off     int64
	checked []*sstable.Reader
}

// verifyPartition validates partition i's WAL frames past m's watermark and
// the checksum of every table in its current stack that m has not checked,
// and returns the advanced mark together with the stack it verified, still
// acquired, for the caller to release. On failure the caller keeps m, which
// stops short of the damage, so the next call reports it again.
//
// It holds no partition lock across the reads: flush, compaction and
// repair carry on and install new stacks and WALs, which the mark then
// follows. A flush may reset the WAL mid-read, and a repair may replace it
// with its truncated reopen; a failure that coincides with either is that
// rewind, not corruption, and the next call starts the new log or
// generation from its first frame.
func (s *Store) verifyPartition(i int, m verifyMark) (verifyMark, *tableVersion, error) {
	p := s.parts[i]
	p.mu.Lock()
	log := p.log
	tables := p.tables
	tables.acquire()
	p.mu.Unlock()
	fail := func(err error) (verifyMark, *tableVersion, error) {
		tables.release()
		return m, nil, err
	}
	if err := s.inj.Fire(FaultSSTableRead); err != nil {
		return fail(fmt.Errorf("verify p%d: %w", p.id, err))
	}
	next := verifyMark{checked: tables.tables}
	if log != nil {
		next.log, next.gen = log, log.Generation()
		if log == m.log && next.gen == m.gen {
			next.off = m.off
		}
		end, err := log.VerifyFrom(next.off)
		switch {
		case log.Generation() != next.gen:
			next.log = nil // rewound under the read
		case err == nil:
			next.off = end
		case !p.replacedLog(log):
			return fail(fmt.Errorf("verify p%d wal: %w", p.id, err))
		}
	}
	for _, t := range tables.tables {
		if slices.Contains(m.checked, t) {
			continue
		}
		if err := t.VerifyChecksum(); err != nil {
			return fail(fmt.Errorf("verify p%d: %w", p.id, err))
		}
	}
	return next, tables, nil
}

// replacedLog reports whether log is no longer partition p's WAL.
func (p *partition) replacedLog(log *wal.Log) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log != log
}
