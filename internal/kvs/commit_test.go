package kvs

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The ordering contract of the append/await write path: no acknowledgement
// before the covering fsync returns, no publish before it either, and each
// connection sees its own requests in program order.

// syncGate is a wal sync hook a test steps through: every sync announces
// itself on entered and then waits for a verdict on verdict.
type syncGate struct {
	entered chan struct{}
	verdict chan error
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan struct{}), verdict: make(chan error)}
}

func (g *syncGate) hook() error {
	g.entered <- struct{}{}
	return <-g.verdict
}

// awaitSync waits for the next sync to enter the gate.
func (g *syncGate) awaitSync(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no sync arrived at the gate")
	}
}

// awaitRecords waits until the partition's WAL holds n appended records,
// i.e. until the connection readers have logged everything sent so far.
func awaitRecords(t *testing.T, p *partition, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.log.Records() < n {
		if time.Now().After(deadline) {
			t.Fatalf("wal holds %d records, want %d", p.log.Records(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within fails the test if fn does not return in time: the hang detector.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// rawConn speaks the wire protocol without the client's window bookkeeping,
// so a test can assert that nothing has been answered yet.
type rawConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{c: c, r: bufio.NewReader(c)}
}

func (rc *rawConn) send(t *testing.T, lines ...string) {
	t.Helper()
	if _, err := rc.c.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawConn) recv(t *testing.T, n int) []string {
	t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]string, n)
	for i := range out {
		line, err := rc.r.ReadString('\n')
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, n, err)
		}
		out[i] = strings.TrimSuffix(line, "\n")
	}
	return out
}

// silent asserts no response byte arrives for a while.
func (rc *rawConn) silent(t *testing.T) {
	t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if b, err := rc.r.Peek(1); err == nil {
		t.Fatalf("answered %q before the covering sync returned", b)
	}
}

func pendingKey(prefix string, i int) []byte { return []byte(fmt.Sprintf("%s%02d", prefix, i)) }

// pendingSets logs n sets on the store, keyed pendingKey(prefix, 0..n-1),
// without awaiting them.
func pendingSets(t *testing.T, s *Store, prefix string, n int) []commitTicket {
	t.Helper()
	tickets := make([]commitTicket, n)
	for i := range tickets {
		tk, err := s.appendMutation(record{op: opSet, key: pendingKey(prefix, i), value: []byte("v")}, true)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	return tickets
}

// TestCommitLateWaiterOfFailedBatchGetsError holds one record's waiter back
// while its batch fails and the next batch succeeds: the outcome belongs to
// the batch, so the late waiter must still get the error, and the record
// must not be readable.
func TestCommitLateWaiterOfFailedBatchGetsError(t *testing.T) {
	s := openStore(t, func(c *Config) { c.Partitions = 1 })
	fail := errors.New("sync N failed")
	var syncs atomic.Int64
	s.parts[0].log.SetSyncHook(func() error {
		if syncs.Add(1) == 1 {
			return fail
		}
		return nil
	})

	late := pendingSets(t, s, "late", 1)[0]
	if err := s.Set([]byte("same-batch"), []byte("v")); !errors.Is(err, fail) {
		t.Fatalf("Set in the failed batch: %v", err)
	}
	if err := s.Set([]byte("next-batch"), []byte("v")); err != nil {
		t.Fatalf("Set in the next batch: %v", err)
	}
	if err := s.finishMutation(late); !errors.Is(err, fail) {
		t.Fatalf("late waiter of the failed batch got %v, want the batch's error", err)
	}
	if _, ok, _ := s.Get(pendingKey("late", 0)); ok {
		t.Fatal("record of the failed batch is readable")
	}
}

// TestCommitPipelineReadYourWrites checks program order on one pipelined
// connection while every sync is slow: each GET answers the SET before it.
// The SyncNone arm takes the same queue with no ticket in it.
func TestCommitPipelineReadYourWrites(t *testing.T) {
	for name, policy := range map[string]SyncPolicy{"group": SyncGroup, "none": SyncNone} {
		t.Run(name, func(t *testing.T) {
			srv, s := startServer(t, func(c *Config) { c.Partitions = 1; c.Sync = policy })
			s.parts[0].log.SetSyncHook(func() error { time.Sleep(5 * time.Millisecond); return nil })
			p := dialClient(t, srv.Addr()).Pipeline(8)
			p.Set("k", "1")
			p.Get("k")
			p.Set("k", "2")
			p.Get("k")
			p.Del("k")
			p.Get("k")
			res, err := p.Exec()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res {
				switch {
				case errors.Is(r.Err, ErrNotFound):
					got = append(got, "NOT_FOUND")
				case r.Err != nil:
					got = append(got, "ERR "+r.Err.Error())
				case r.Value != "":
					got = append(got, r.Value)
				default:
					got = append(got, "OK")
				}
			}
			if want := "OK 1 OK 2 OK NOT_FOUND"; strings.Join(got, " ") != want {
				t.Fatalf("answers %q, want %q", strings.Join(got, " "), want)
			}
		})
	}
}

// TestCommitPipelineFailedBatchAnswersErrInOrder fails the sync of the
// second batch of a pipelined window: exactly that batch's writes answer
// ERR, in request order, later writes answer OK, and no failed value is
// readable.
func TestCommitPipelineFailedBatchAnswersErrInOrder(t *testing.T) {
	srv, s := startServer(t, func(c *Config) { c.Partitions = 1 })
	p := s.parts[0]
	gate := newSyncGate()
	p.log.SetSyncHook(gate.hook)
	rc := dialRaw(t, srv.Addr())

	// Batch 1 is the first set alone: its sync is held at the gate while the
	// rest of the window is logged behind it, into batch 2.
	const window = 9
	rc.send(t, "SET k0 v0")
	gate.awaitSync(t)
	var rest []string
	for i := 1; i < window; i++ {
		rest = append(rest, fmt.Sprintf("SET k%d v%d", i, i))
	}
	rc.send(t, rest...)
	awaitRecords(t, p, window)
	rc.silent(t)
	gate.verdict <- nil
	gate.awaitSync(t)
	gate.verdict <- errors.New("disk said no")

	got := rc.recv(t, window)
	for i, line := range got {
		want := "ERR disk said no"
		if i == 0 {
			want = "OK"
		}
		if line != want {
			t.Fatalf("answer %d = %q, want %q (all: %q)", i, line, want, got)
		}
	}

	p.log.SetSyncHook(nil)
	rc.send(t, "SET after v", "GET k0", "GET k1", "GET k8", "GET after")
	want := []string{"OK", "VALUE v0", "NOT_FOUND", "NOT_FOUND", "VALUE v"}
	if got := rc.recv(t, len(want)); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("after the failed batch: %q, want %q", got, want)
	}
}

// TestCommitAckedSurviveCrashWithWindowInFlight cuts the power while a
// window of writes is logged but not synced: nothing in it has been
// answered, and a store reopened on the durable prefix of the WAL plus a
// torn tail holds every acknowledged write and nothing that was never sent.
func TestCommitAckedSurviveCrashWithWindowInFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := s.parts[0]
	rc := dialRaw(t, srv.Addr())

	const acked, inFlight = 8, 8
	issued := map[string]string{}
	var lines []string
	for i := 0; i < acked+inFlight; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		issued[k] = v
		lines = append(lines, "SET "+k+" "+v)
	}
	rc.send(t, lines[:acked]...)
	for i, line := range rc.recv(t, acked) {
		if line != "OK" {
			t.Fatalf("set %d: %q", i, line)
		}
	}

	durable := p.log.Size() // the answered writes are synced
	gate := newSyncGate()
	p.log.SetSyncHook(gate.hook)
	rc.send(t, lines[acked:]...)
	gate.awaitSync(t)
	awaitRecords(t, p, acked+inFlight)
	rc.silent(t)

	// The crash image: what the disk is known to hold plus, of the unsynced
	// tail that it may or may not hold, all but a few bytes — the last
	// record is torn.
	wal, err := os.ReadFile(p.log.Path())
	if err != nil {
		t.Fatal(err)
	}
	if durable >= int64(len(wal))-5 {
		t.Fatalf("%d of %d wal bytes synced with a window in flight", durable, len(wal))
	}
	image := wal[:len(wal)-5]
	crashed := t.TempDir()
	if err := os.MkdirAll(filepath.Join(crashed, "p000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, "p000", "wal.log"), image, 0o644); err != nil {
		t.Fatal(err)
	}

	gate.verdict <- errors.New("power cut")
	p.log.SetSyncHook(func() error { return errors.New("power cut") })
	for i, line := range rc.recv(t, inFlight) {
		if line != "ERR power cut" {
			t.Fatalf("in-flight set %d answered %q after the cut", i, line)
		}
	}

	re, err := Open(Config{Dir: crashed, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < acked; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, ok, err := re.Get([]byte(k)); err != nil || !ok || string(v) != issued[k] {
			t.Fatalf("acknowledged %s after recovery = %q %v %v", k, v, ok, err)
		}
	}
	recovered, err := re.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) >= acked+inFlight {
		t.Fatalf("recovered %d records from a torn image of %d", len(recovered), acked+inFlight)
	}
	for _, e := range recovered {
		if issued[string(e.Key)] != string(e.Value) {
			t.Fatalf("recovered %s=%s, never issued", e.Key, e.Value)
		}
	}
}

// TestCommitFlushAndRepairResolveOutstandingTickets checks the exclusive
// paths drain the committer instead of waiting for the tickets' own
// waiters (which would deadlock) or resetting the WAL under them (which
// would lose acknowledged data): every outstanding ticket resolves with its
// batch's true outcome, synced before the flush touches the memtable.
func TestCommitFlushAndRepairResolveOutstandingTickets(t *testing.T) {
	s := openStore(t, func(c *Config) { c.Partitions = 1 })
	p := s.parts[0]
	var syncs atomic.Int64
	var fail atomic.Bool
	bad := errors.New("bad sector")
	p.log.SetSyncHook(func() error {
		syncs.Add(1)
		if fail.Load() {
			return bad
		}
		return nil
	})

	check := func(step, prefix string, tickets []commitTicket, want error) {
		t.Helper()
		for i, tk := range tickets {
			if err := s.finishMutation(tk); !errors.Is(err, want) {
				t.Fatalf("%s: ticket %d resolved %v, want %v", step, i, err, want)
			}
			_, ok, err := s.Get(pendingKey(prefix, i))
			if err != nil || ok != (want == nil) {
				t.Fatalf("%s: key %d readable=%v err=%v", step, i, ok, err)
			}
		}
	}

	flushed := pendingSets(t, s, "flushed", 4)
	within(t, "FlushPartition", func() {
		if err := s.FlushPartition(0, true); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	if syncs.Load() != 1 || s.TableCount(0) != 1 {
		t.Fatalf("flush over 4 pending records: %d syncs, %d tables", syncs.Load(), s.TableCount(0))
	}
	check("flush", "flushed", flushed, nil)

	fail.Store(true)
	lost := pendingSets(t, s, "lost", 4)
	within(t, "FlushPartition", func() { s.FlushPartition(0, true) })
	check("failed flush", "lost", lost, bad)
	if s.TableCount(0) != 1 {
		t.Fatal("unsynced records were flushed to a table")
	}
	fail.Store(false)

	repaired := pendingSets(t, s, "repaired", 4)
	within(t, "RepairPartition", func() {
		if _, err := s.RepairPartition(0); err != nil {
			t.Errorf("repair: %v", err)
		}
	})
	check("repair", "repaired", repaired, nil)
}

// TestCommitStoreCloseResolvesOutstandingTickets checks Close commits what
// is logged before it closes the WAL: the tickets resolve OK and the
// records are there after a reopen.
func TestCommitStoreCloseResolvesOutstandingTickets(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	tickets := pendingSets(t, s, "k", 4)
	within(t, "Store.Close", func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for i, tk := range tickets {
		if err := s.finishMutation(tk); err != nil {
			t.Fatalf("ticket %d after close: %v", i, err)
		}
	}
	if _, err := s.appendMutation(record{op: opSet, key: []byte("late"), value: []byte("v")}, true); err == nil {
		t.Fatal("append after close succeeded")
	}
	re, err := Open(Config{Dir: dir, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.Scan(nil, nil, 0); err != nil || len(got) != len(tickets) {
		t.Fatalf("reopened store holds %d records (%v), want %d", len(got), err, len(tickets))
	}
}

// TestCommitServerCloseWaitsOutTickets closes the server while a window's
// sync is stuck: Close must not return while a connection goroutine is
// still waiting on the disk, must return once the sync does, and the
// unsynced window must not have been acknowledged.
func TestCommitServerCloseWaitsOutTickets(t *testing.T) {
	s := openStore(t, func(c *Config) { c.Partitions = 1 })
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	p := s.parts[0]
	gate := newSyncGate()
	p.log.SetSyncHook(gate.hook)
	rc := dialRaw(t, srv.Addr())
	rc.send(t, "SET a 1", "SET b 2", "SET c 3")
	gate.awaitSync(t)
	awaitRecords(t, p, 3)

	closed := make(chan struct{})
	go func() { defer close(closed); srv.Close() }()
	select {
	case <-closed:
		t.Fatal("Server.Close returned with a connection still waiting for its sync")
	case <-time.After(30 * time.Millisecond):
	}
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := rc.r.ReadString('\n'); err == nil {
		t.Fatalf("answered %q before the covering sync returned", line)
	}

	p.log.SetSyncHook(nil)
	gate.verdict <- nil
	within(t, "Server.Close", func() { <-closed })
	// Close returned, so every connection goroutine has: the window is
	// committed, by them.
	for _, k := range []string{"a", "b", "c"} {
		if _, ok, err := s.Get([]byte(k)); err != nil || !ok {
			t.Fatalf("Get %s after close: ok=%v err=%v", k, ok, err)
		}
	}
}

// TestCommitPipelineCoalesces is the coalescing floor: one connection's
// window of 64 sets to one partition shares a handful of fsyncs instead of
// paying 64, and the server's own counters say so.
func TestCommitPipelineCoalesces(t *testing.T) {
	srv, s := startServer(t, func(c *Config) { c.Partitions = 1 })
	var syncs atomic.Int64
	s.parts[0].log.SetSyncHook(func() error {
		syncs.Add(1)
		time.Sleep(time.Millisecond) // a disk slow enough for the reader to get ahead of
		return nil
	})
	c := dialClient(t, srv.Addr())
	const sets = 64
	p := c.Pipeline(sets)
	for i := 0; i < sets; i++ {
		p.Set(fmt.Sprintf("k%02d", i), "v")
	}
	res, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
	}
	if n := syncs.Load(); n > 8 {
		t.Fatalf("%d syncs for %d pipelined sets, want at most 8", n, sets)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["kvs.commit.records"] != sets || stats["kvs.commit.syncs"] != float64(syncs.Load()) {
		t.Fatalf("STATS: %v records over %v syncs, want %d over %d",
			stats["kvs.commit.records"], stats["kvs.commit.syncs"], sets, syncs.Load())
	}
	if w, ok := stats["kvs.latency.commit_wait"]; !ok || w <= 0 {
		t.Fatalf("STATS: kvs.latency.commit_wait = %v (present %v), want a sampled wait", w, ok)
	}
}
