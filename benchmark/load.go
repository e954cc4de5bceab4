package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gowatchdog/internal/kvs"
)

// loadCfg shapes one client run against a booted kvsSystem.
type loadCfg struct {
	conns     int
	depth     int           // pipeline window per connection
	rate      float64       // open loop: ops/s over all connections; 0 = closed loop
	pace      time.Duration // closed loop: earliest gap between a connection's windows; 0 = none
	warmup    time.Duration // served but not measured
	window    time.Duration // the measured time is cut into windows this long
	windows   int
	valueSize int
	// faultsExpected tolerates "ERR" answers: detect_faults injects errors on
	// the write path on purpose, and a refused set is then the correct answer.
	faultsExpected bool
	// stop, when non-nil, ends a closed loop early once closed.
	stop <-chan struct{}
}

// loadResult is what one connection, or all of them merged, saw.
type loadResult struct {
	winOps    []int                 // requests answered, per measurement window
	lat       [numOpKinds][]float64 // latency of every measured request, microseconds
	attempted int64
	failed    int64     // wrong, missing or refused answers
	refused   int64     // ERR answers tolerated under faultsExpected
	late      []float64 // open loop: how late each request was sent, microseconds
	firstErr  error
}

// connRun is one connection's share of a run.
type connRun struct {
	cfg    *loadCfg
	stream *opStream
	start  time.Time // measured time begins
	end    time.Time
	res    loadResult
}

// record files one answered request under the window its answer arrived in.
func (c *connRun) record(kind opKind, now time.Time, lat time.Duration) {
	if now.Before(c.start) {
		return
	}
	w := int(now.Sub(c.start) / c.cfg.window)
	if w >= len(c.res.winOps) {
		return
	}
	c.res.winOps[w]++
	c.res.lat[kind] = append(c.res.lat[kind], us(lat))
}

// send queues o on p.
func send(p *kvs.Pipeline, ks *keyspace, o op, valueSize int) error {
	key := ks.keys[o.key]
	switch o.kind {
	case opGet:
		return p.Get(key)
	case opSet:
		return p.Set(key, valueFor(o.key, o.ver, valueSize))
	default:
		return p.Scan(key, scanEnd(key), scanLimit)
	}
}

// verify checks one answer against the model and counts it.
func (c *connRun) verify(o op, r kvs.Result) {
	c.res.attempted++
	if r.Err != nil && c.cfg.faultsExpected && !errors.Is(r.Err, kvs.ErrNotFound) {
		c.res.refused++
		if o.kind == opSet {
			c.stream.unset(o)
		}
		return
	}
	if err := checkAnswer(c.stream, o, r, c.cfg.valueSize); err != nil {
		c.res.failed++
		if c.res.firstErr == nil {
			c.res.firstErr = err
		}
	}
}

// checkAnswer is the correctness oracle: a get returns exactly the last
// value this stream set, a set is acknowledged, a scan is sorted, inside its
// range, within its limit, and every value it carries belongs to its key.
func checkAnswer(s *opStream, o op, r kvs.Result, valueSize int) error {
	key := s.ks.keys[o.key]
	switch o.kind {
	case opSet:
		if r.Err != nil {
			return fmt.Errorf("set %s: %w", key, r.Err)
		}
	case opGet:
		if o.ver == 0 {
			if !errors.Is(r.Err, kvs.ErrNotFound) {
				return fmt.Errorf("get %s: want not-found, got %q (%v)", key, r.Value, r.Err)
			}
			return nil
		}
		if r.Err != nil {
			return fmt.Errorf("get %s: %w", key, r.Err)
		}
		if !checkValue(r.Value, o.key, o.ver, valueSize) {
			return fmt.Errorf("get %s: want version %d, got %.24q", key, o.ver, r.Value)
		}
	case opScan:
		if r.Err != nil {
			return fmt.Errorf("scan %s: %w", key, r.Err)
		}
		if len(r.Lines) > scanLimit {
			return fmt.Errorf("scan %s: %d lines over limit %d", key, len(r.Lines), scanLimit)
		}
		end, prev := scanEnd(key), ""
		for _, line := range r.Lines {
			k, v, ok := strings.Cut(line, " ")
			if !ok || k < key || k >= end || k <= prev {
				return fmt.Errorf("scan %s: line %.24q unsorted or out of range", key, line)
			}
			prev = k
			idx := keyIndex(k)
			claimed, okv := valueKey(v)
			if idx < 0 || !okv || claimed != idx || len(v) != valueSize {
				return fmt.Errorf("scan %s: key %s carries a value that is not its own", key, k)
			}
			if want, owned := s.expected(idx); owned {
				ver, _ := strconv.ParseUint(v[8:16], 16, 32)
				if uint32(ver) > want || !checkValue(v, idx, uint32(ver), valueSize) {
					return fmt.Errorf("scan %s: key %s at version %d, model has %d", key, k, ver, want)
				}
			}
		}
	}
	return nil
}

// closedLoop keeps depth requests in flight: queue a window, flush, read every
// answer, repeat. Latency is from the flush to each answer.
func (c *connRun) closedLoop(addr string, ks *keyspace) error {
	cl, err := kvs.Dial(addr, 30*time.Second)
	if err != nil {
		return err
	}
	defer cl.Close()
	p := cl.Pipeline(c.cfg.depth)
	batch := make([]op, c.cfg.depth)
	for time.Now().Before(c.end) {
		select {
		case <-c.cfg.stop:
			return nil
		default:
		}
		next := time.Now().Add(c.cfg.pace)
		for i := range batch {
			batch[i] = c.stream.next()
			if err := send(p, ks, batch[i], c.cfg.valueSize); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := p.Flush(); err != nil {
			return err
		}
		for _, o := range batch {
			r, err := p.Recv()
			if err != nil {
				return err
			}
			now := time.Now()
			c.verify(o, r)
			c.record(o.kind, now, now.Sub(t0))
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	return nil
}

// sentOp travels from the open loop's sender to a connection's receiver.
type sentOp struct {
	o   op
	due time.Time
}

// openLoop sends request i at begin+i/rate whatever the server is doing, and
// times each answer from the moment its request was due, so a stall is
// charged to every request it delayed. One pacer goroutine sends for all
// connections, round robin, and one receiver per connection reads answers;
// the pacer never waits for an answer.
//
// The pacer waits for the next due time in nanosleep(2), not time.Sleep: a
// goroutine sleeping on an otherwise idle processor is woken through the
// network poller, whose timeout is rounded up to a millisecond, and a
// generator half a millisecond late on average would be measuring itself.
// (Yielding in a loop instead keeps the processor busy and starves that same
// poller, which delays the answers.) How late the pacer still ran is reported
// as loadgen.late_p99_us.
func openLoop(addr string, ks *keyspace, runs []*connRun, cfg *loadCfg, begin time.Time) error {
	type conn struct {
		cl   *kvs.Client
		p    *kvs.Pipeline
		sent chan sentOp // sized to the pipeline window: one slot per request in flight
		err  error       // the receiver's, read after wg.Wait
	}
	conns := make([]*conn, len(runs))
	var wg sync.WaitGroup
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.cl.Close()
			}
		}
	}()
	for i, run := range runs {
		cl, err := kvs.Dial(addr, 30*time.Second)
		if err != nil {
			return err
		}
		c := &conn{cl: cl, p: cl.Pipeline(cfg.depth), sent: make(chan sentOp, cfg.depth)}
		conns[i] = c
		wg.Add(1)
		go func(run *connRun) {
			defer wg.Done()
			for s := range c.sent {
				if c.err != nil {
					continue // keep draining so the pacer cannot block
				}
				r, err := c.p.Recv()
				if err != nil {
					c.err = err
					continue
				}
				now := time.Now()
				run.verify(s.o, r)
				run.record(s.o.kind, now, now.Sub(s.due))
			}
		}(run)
	}

	// nanosleep on a thread with the default 50 us timer slack wakes that much
	// late by design; the pacer's thread asks for 1 us.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, uintptr(time.Microsecond), 0)

	gap := time.Duration(float64(time.Second) / cfg.rate)
	end := runs[0].end
	var sendErr error
	for i := 0; sendErr == nil; i++ {
		due := begin.Add(gap * time.Duration(i))
		if !due.Before(end) {
			break
		}
		now := time.Now()
		for now.Before(due) {
			ts := syscall.NsecToTimespec(int64(due.Sub(now)))
			_ = syscall.Nanosleep(&ts, nil) // an early return just goes round again
			now = time.Now()
		}
		run, c := runs[i%len(runs)], conns[i%len(runs)]
		o := run.stream.next()
		if !due.Before(run.start) {
			run.res.late = append(run.res.late, us(now.Sub(due)))
		}
		if sendErr = send(c.p, ks, o, cfg.valueSize); sendErr == nil {
			c.sent <- sentOp{o, due}
			sendErr = c.p.Flush()
		}
	}
	for _, c := range conns {
		close(c.sent)
	}
	if sendErr != nil {
		for _, c := range conns {
			c.cl.Close() // unblock receivers waiting on answers that will not come
		}
	}
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	for _, c := range conns {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// runLoad drives cfg.conns connections against addr and merges what they
// saw. The measured time starts cfg.warmup after begin.
func runLoad(addr string, ks *keyspace, streams []*opStream, cfg loadCfg, begin time.Time) (*loadResult, error) {
	start := begin.Add(cfg.warmup)
	end := start.Add(cfg.window * time.Duration(cfg.windows))
	runs := make([]*connRun, cfg.conns)
	errs := make([]error, cfg.conns)
	var wg sync.WaitGroup
	for i := range runs {
		runs[i] = &connRun{cfg: &cfg, stream: streams[i], start: start, end: end}
		runs[i].res.winOps = make([]int, cfg.windows)
	}
	if cfg.rate > 0 {
		if err := openLoop(addr, ks, runs, &cfg, begin); err != nil {
			return nil, err
		}
	} else {
		for i := range runs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = runs[i].closedLoop(addr, ks)
			}(i)
		}
		wg.Wait()
	}
	out := &loadResult{winOps: make([]int, cfg.windows)}
	for i, r := range runs {
		if errs[i] != nil {
			return nil, fmt.Errorf("connection %d: %w", i, errs[i])
		}
		out.attempted += r.res.attempted
		out.failed += r.res.failed
		out.refused += r.res.refused
		out.late = append(out.late, r.res.late...)
		if out.firstErr == nil {
			out.firstErr = r.res.firstErr
		}
		for w := range out.winOps {
			out.winOps[w] += r.res.winOps[w]
		}
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], r.res.lat[k]...)
		}
	}
	return out, nil
}

// opsPerSec is the throughput over the chosen windows: requests answered
// in them over their length. It is a mean, not a median over windows: a
// store with background flushes and compactions alternates between two
// speeds, a median then sits on the edge between them, and the mean weighs
// both by the time the store really spent in each.
func (r *loadResult) opsPerSec(window time.Duration, keep func(w int) bool) float64 {
	ops, n := 0, 0
	for w, answered := range r.winOps {
		if keep(w) {
			ops += answered
			n++
		}
	}
	return float64(ops) / (float64(n) * window.Seconds())
}

// latencies returns every measured latency of the given kinds, sorted.
func (r *loadResult) latencies(kinds ...opKind) []float64 {
	var all []float64
	for _, k := range kinds {
		all = append(all, r.lat[k]...)
	}
	sort.Float64s(all)
	return all
}

var allKinds = []opKind{opGet, opSet, opScan}
