package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/gauge"
	"gowatchdog/internal/memtable"
	"gowatchdog/internal/watchdog"
)

// Fault point names instrumented throughout the store. Experiments arm
// faults here to manufacture gray failures.
const (
	FaultIndexerPut     = "kvs.indexer.put"
	FaultIndexerGet     = "kvs.indexer.get"
	FaultWALAppend      = "kvs.wal.append"
	FaultFlushWrite     = "kvs.flusher.write"
	FaultCompactMerge   = "kvs.compaction.merge"
	FaultReplSend       = "kvs.repl.send"
	FaultListenerHandle = "kvs.listener.handle"
	FaultSSTableRead    = "kvs.sstable.read"
)

// SyncPolicy selects WAL durability on the write path.
type SyncPolicy int

const (
	// SyncGroup (the default) queues each mutation on its partition's group
	// committer: appends made while a sync is in flight — by other callers,
	// or by one connection's pipelined requests — coalesce into the next
	// single fsync, and the memtable publish happens only after the covering
	// sync completes, so acknowledged writes are durable and reads never see
	// state a crash could lose.
	SyncGroup SyncPolicy = iota
	// SyncNone acknowledges after the buffered WAL append without waiting
	// for a sync — the pre-group-commit behavior. Durability only at flush
	// boundaries; fastest, for tests and expendable data. The append only
	// fills the WAL's in-memory tail, written every 64 KiB, so a process
	// crash can lose up to 64 KiB of acknowledged writes per partition.
	SyncNone
)

// Config configures a Store.
type Config struct {
	// Dir is the data directory; ignored when InMemory is set.
	Dir string
	// InMemory disables the WAL and SSTables entirely (the configuration
	// from §3.1 where a disk-flusher report would be spurious).
	InMemory bool
	// Sync selects the write-path durability policy (default SyncGroup).
	Sync SyncPolicy
	// Partitions is the number of key-range partitions (default 4).
	Partitions int
	// FlushThresholdBytes triggers a memtable flush (default 1 MiB).
	FlushThresholdBytes int64
	// FlushInterval is the flusher's scan cadence (default 500ms).
	FlushInterval time.Duration
	// CompactionInterval is the compaction manager's cadence (default 2s).
	CompactionInterval time.Duration
	// CompactionMinTables is how many SSTables a partition accumulates
	// before compaction merges them (default 4).
	CompactionMinTables int
	// ReplicaAddr, when set, streams mutations to a replica server.
	ReplicaAddr string
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Injector is the fault-point registry; nil disables injection.
	Injector *faultinject.Injector
	// Metrics defaults to a private registry.
	Metrics *gauge.Registry
	// WatchdogFactory, when set, receives hook updates for the generated
	// checkers' contexts.
	WatchdogFactory *watchdog.Factory
}

func (c *Config) applyDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.FlushThresholdBytes <= 0 {
		c.FlushThresholdBytes = 1 << 20
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.CompactionInterval <= 0 {
		c.CompactionInterval = 2 * time.Second
	}
	if c.CompactionMinTables <= 0 {
		c.CompactionMinTables = 4
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.Metrics == nil {
		c.Metrics = gauge.NewRegistry()
	}
	if c.Injector == nil {
		c.Injector = faultinject.New(c.Clock)
	}
}

// Store is the kvs engine: partition manager, indexer, flusher, compaction
// manager, and optional replication engine.
type Store struct {
	cfg   Config
	clk   clock.Clock
	inj   *faultinject.Injector
	mets  *gauge.Registry
	parts []*partition
	repl  *replicator

	// Hot-path hook sampling: the indexer/WAL/listener hooks fire on every
	// mutation or request, so they capture state only every hookSampleEvery
	// calls — recent-enough context for the checkers at negligible cost
	// (§3.2: checking must not slow the main program).
	indexerHookSeq  atomic.Uint32
	walHookSeq      atomic.Uint32
	listenerHookSeq atomic.Uint32

	// Mutation latency is likewise sampled: clock reads and the window's
	// mutex would otherwise show up at saturating load.
	latSeq atomic.Uint32

	// Cached per-partition gauges keep fmt.Sprintf off the write path.
	memBytesGauges []*gauge.Gauge
	tableGauges    []*gauge.Gauge
	mutations      *gauge.Counter
	errorsC        *gauge.Counter
	readsC         *gauge.Counter
	mutLatency     *gauge.Window
	// Group-commit stage: records per sync is the coalescing factor, and
	// the wait is a record's time from WAL append to covering sync (sampled
	// with mutLatency).
	commitSyncs   *gauge.Counter
	commitRecords *gauge.Counter
	commitWait    *gauge.Window

	// closers release what watchdog checkers keep open between runs.
	closersMu sync.Mutex
	closers   []func()

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// Open creates or recovers a Store.
func Open(cfg Config) (*Store, error) {
	cfg.applyDefaults()
	s := &Store{
		cfg:  cfg,
		clk:  cfg.Clock,
		inj:  cfg.Injector,
		mets: cfg.Metrics,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.mutations = s.mets.Counter("kvs.mutations")
	s.errorsC = s.mets.Counter("kvs.errors")
	s.readsC = s.mets.Counter("kvs.reads")
	s.mutLatency = s.mets.Window("kvs.latency.mutation", 256)
	s.commitSyncs = s.mets.Counter("kvs.commit.syncs")
	s.commitRecords = s.mets.Counter("kvs.commit.records")
	s.commitWait = s.mets.Window("kvs.latency.commit_wait", 256)
	// Range-partition the single-byte prefix space evenly. The partition
	// manager invariant: ranges are sorted, contiguous, non-overlapping.
	n := cfg.Partitions
	for i := 0; i < n; i++ {
		var lo, hi []byte
		if i > 0 {
			lo = []byte{byte(i * 256 / n)}
		}
		if i < n-1 {
			hi = []byte{byte((i + 1) * 256 / n)}
		}
		dir := ""
		if !cfg.InMemory {
			dir = filepath.Join(cfg.Dir, fmt.Sprintf("p%03d", i))
		}
		p, quarantined, err := newPartition(i, lo, hi, dir)
		if err != nil {
			s.closePartitions()
			return nil, err
		}
		s.mets.Counter("kvs.repairs").Add(int64(quarantined))
		s.parts = append(s.parts, p)
	}
	if cfg.ReplicaAddr != "" {
		s.repl = newReplicator(cfg.ReplicaAddr, s.clk, s.inj, s.mets, cfg.WatchdogFactory)
	}
	for i := 0; i < n; i++ {
		s.memBytesGauges = append(s.memBytesGauges, s.mets.Gauge(fmt.Sprintf("kvs.mem.bytes.%d", i)))
		s.tableGauges = append(s.tableGauges, s.mets.Gauge(fmt.Sprintf("kvs.tables.%d", i)))
	}
	return s, nil
}

// hookSampleEvery is the hot-path hook sampling period.
const hookSampleEvery = 64

// Start launches the background flusher, compaction manager, and
// replication sender.
func (s *Store) Start() {
	if s.started {
		return
	}
	s.started = true
	go s.backgroundLoop()
	if s.repl != nil {
		s.repl.start()
	}
}

// backgroundLoop drives flushing and compaction on their cadences.
func (s *Store) backgroundLoop() {
	defer close(s.done)
	flushTick := s.clk.NewTicker(s.cfg.FlushInterval)
	defer flushTick.Stop()
	compactTick := s.clk.NewTicker(s.cfg.CompactionInterval)
	defer compactTick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-flushTick.C():
			s.FlushAll(false)
		case <-compactTick.C():
			s.CompactAll()
		}
	}
}

// onClose registers fn to run when the store closes.
func (s *Store) onClose(fn func()) {
	s.closersMu.Lock()
	defer s.closersMu.Unlock()
	s.closers = append(s.closers, fn)
}

// Close stops background work and releases resources. A final flush
// persists the memtables.
func (s *Store) Close() error {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.closersMu.Lock()
	closers := s.closers
	s.closers = nil
	s.closersMu.Unlock()
	for _, fn := range closers {
		fn()
	}
	if s.started {
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			// Background loop may be wedged by an injected hang; abandon it.
		}
	}
	if s.repl != nil {
		s.repl.close()
	}
	if !s.cfg.InMemory {
		s.FlushAll(true)
	}
	return s.closePartitions()
}

func (s *Store) closePartitions() error {
	var firstErr error
	for _, p := range s.parts {
		// Like a flush: shut out appends, then commit what is queued, so
		// every outstanding ticket resolves before the log goes away.
		p.writeGate.Lock()
		s.drainCommits(p)
		if err := p.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		p.writeGate.Unlock()
	}
	return firstErr
}

// Metrics returns the store's metric registry.
func (s *Store) Metrics() *gauge.Registry { return s.mets }

// Injector returns the store's fault injector.
func (s *Store) Injector() *faultinject.Injector { return s.inj }

// Partitions returns the number of partitions.
func (s *Store) Partitions() int { return len(s.parts) }

// partitionFor routes key through the partition manager.
func (s *Store) partitionFor(key []byte) *partition {
	for _, p := range s.parts {
		if p.owns(key) {
			return p
		}
	}
	// Unreachable with contiguous ranges; defend anyway.
	return s.parts[len(s.parts)-1]
}

// ErrEmptyKey rejects empty keys.
var ErrEmptyKey = errors.New("kvs: empty key")

// Set stores value under key.
func (s *Store) Set(key, value []byte) error {
	return s.apply(record{op: opSet, key: key, value: value}, true)
}

// Append appends value to the existing value of key (creating it if absent).
func (s *Store) Append(key, value []byte) error {
	old, ok, err := s.Get(key)
	if err != nil {
		return err
	}
	merged := value
	if ok {
		merged = append(append([]byte(nil), old...), value...)
	}
	return s.Set(key, merged)
}

// ApplyReplicated applies a mutation received from the primary, without
// re-replicating it.
func (s *Store) ApplyReplicated(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	return s.apply(rec, false)
}

// latSampleEvery is the mutation-latency observation sampling period.
const latSampleEvery = 16

// commitTicket is a mutation that has been logged and waits for its
// covering sync: what appendMutation hands to finishMutation. The zero
// ticket means there is nothing to wait for (SyncNone, in-memory).
type commitTicket struct {
	batch *commitBatch
	// start and appended are set on latency-sampled mutations only.
	start, appended time.Time
}

// apply routes one mutation through WAL, indexer, and replication, and
// returns once it is committed: append and await on the calling goroutine.
// The server runs the same two halves on a connection's reader and writer.
func (s *Store) apply(rec record, replicate bool) error {
	t, err := s.appendMutation(rec, replicate)
	if err != nil {
		return err
	}
	return s.finishMutation(t)
}

// appendMutation is the first half of a mutation: hooks, fault points and
// the WAL append. Under SyncGroup the record is left queued on its
// partition's open commit batch — not yet durable, not yet visible — and
// the ticket says which; otherwise the mutation is complete and the ticket
// zero. rec's key and value are not retained.
func (s *Store) appendMutation(rec record, replicate bool) (commitTicket, error) {
	if len(rec.key) == 0 {
		return commitTicket{}, ErrEmptyKey
	}
	var start time.Time
	if s.latSeq.Add(1)%latSampleEvery == 0 {
		start = s.clk.Now()
	}
	p := s.partitionFor(rec.key)

	// Indexer hook (sampled): the mimic indexer checker replays a put/get
	// with the same key shape as recent real traffic. The key is copied
	// because callers (the pipelined server) may reuse its backing buffer.
	s.sampledHook("kvs.indexer", &s.indexerHookSeq, func() map[string]any {
		return map[string]any{
			"partition": p.id,
			"key":       append([]byte(nil), rec.key...),
			"op":        int(rec.op),
		}
	})

	// Appends serialize against flushes on the partition's write gate, so a
	// flush wedged inside its vulnerable disk write blocks this partition's
	// writes — a partial failure — while other partitions stay healthy.
	p.writeGate.RLock()
	defer p.writeGate.RUnlock()

	var payload []byte
	if p.log != nil {
		payload, rec = encodeOwned(rec)
		s.sampledHook("kvs.wal", &s.walHookSeq, func() map[string]any {
			return map[string]any{
				"partition": p.id,
				"wal_path":  p.log.Path(),
				"record":    payload,
			}
		})
		if err := s.inj.Fire(FaultWALAppend); err != nil {
			s.errorsC.Inc()
			return commitTicket{}, fmt.Errorf("wal append: %w", err)
		}
	}

	// The indexer fault gates the memtable publish; it fires before the
	// append because a group-committed record is published by the batch
	// leader, past the point where this writer could abort it.
	if err := s.inj.Fire(FaultIndexerPut); err != nil {
		s.errorsC.Inc()
		return commitTicket{}, fmt.Errorf("indexer: %w", err)
	}

	replicate = replicate && s.repl != nil
	if p.log != nil && s.cfg.Sync == SyncGroup {
		pending := pendingRecord{rec: rec}
		if replicate {
			pending.repl = payload
		}
		batch, err := p.appendPending(payload, pending)
		if err != nil {
			s.errorsC.Inc()
			return commitTicket{}, err
		}
		t := commitTicket{batch: batch, start: start}
		if !start.IsZero() {
			t.appended = s.clk.Now()
		}
		return t, nil
	}

	if p.log != nil {
		if err := p.log.Append(payload); err != nil {
			s.errorsC.Inc()
			return commitTicket{}, err
		}
	}
	p.mu.Lock()
	p.applyToMem(rec)
	p.mu.Unlock()
	s.mutations.Inc()
	if replicate {
		if payload == nil {
			payload = encodeRecord(rec)
		}
		s.repl.enqueue(payload)
	}
	s.observeMutation(p, start, time.Time{})
	return commitTicket{}, nil
}

// finishMutation is the second half: it waits for the sync that covers the
// ticket's record (leading it if nobody else is) and reports whether the
// mutation committed. It is called once per ticket.
func (s *Store) finishMutation(t commitTicket) error {
	if t.batch == nil {
		return nil
	}
	if err := s.awaitCommit(t.batch); err != nil {
		s.errorsC.Inc()
		return err
	}
	s.observeMutation(t.batch.p, t.start, t.appended)
	return nil
}

// observeMutation records a completed mutation that was picked for latency
// sampling (start is set): the clock reads, the windows' mutexes and the
// extra partition-lock acquisition stay off the per-mutation path.
func (s *Store) observeMutation(p *partition, start, appended time.Time) {
	if start.IsZero() {
		return
	}
	now := s.clk.Now()
	s.mutLatency.Observe(float64(now.Sub(start)))
	if !appended.IsZero() {
		s.commitWait.Observe(float64(now.Sub(appended)))
	}
	s.memBytesGauges[p.id].Set(float64(p.memBytes()))
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return nil, false, ErrEmptyKey
	}
	if err := s.inj.Fire(FaultIndexerGet); err != nil {
		s.errorsC.Inc()
		return nil, false, fmt.Errorf("indexer: %w", err)
	}
	p := s.partitionFor(key)
	v, ok, err := p.get(key)
	if err != nil {
		s.errorsC.Inc()
		return nil, false, err
	}
	s.readsC.Inc()
	return v, ok, nil
}

// Scan returns up to limit live entries with start <= key < end across all
// partitions.
func (s *Store) Scan(start, end []byte, limit int) ([]memtable.Entry, error) {
	var out []memtable.Entry
	for _, p := range s.parts {
		// Partitions are sorted by key range, so the scan skips those below
		// start, stops at the first at or above end, and pushes the remaining
		// limit down: each bounded merge stops after its share.
		if p.hi != nil && start != nil && bytes.Compare(p.hi, start) <= 0 {
			continue
		}
		if p.lo != nil && end != nil && bytes.Compare(p.lo, end) >= 0 {
			break
		}
		remaining := 0
		if limit > 0 {
			remaining = limit - len(out)
		}
		es, err := p.scan(start, end, remaining)
		if err != nil {
			return nil, err
		}
		out = append(out, es...)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			break
		}
	}
	return out, nil
}

// hook writes into the named watchdog context when a factory is configured.
// This is the instrumentation the AutoWatchdog generator inserts: a one-way
// state push on the main execution path.
func (s *Store) hook(checker string, vals map[string]any) {
	if s.cfg.WatchdogFactory == nil {
		return
	}
	s.cfg.WatchdogFactory.Context(checker).PutAll(vals)
}

// sampledHook is hook for per-mutation call sites: it captures state every
// hookSampleEvery-th call, building the payload lazily so skipped calls
// cost two atomic ops and no allocation. The first call always captures so
// contexts become ready as soon as the path runs at all.
func (s *Store) sampledHook(checker string, seq *atomic.Uint32, build func() map[string]any) {
	if s.cfg.WatchdogFactory == nil {
		return
	}
	if n := seq.Add(1); n != 1 && n%hookSampleEvery != 0 {
		return
	}
	s.cfg.WatchdogFactory.Context(checker).PutAll(build())
}
