package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gowatchdog/internal/kvs"
	"gowatchdog/internal/memtable"
	"gowatchdog/internal/sstable"
	"gowatchdog/internal/wal"
)

// Tracing from outside. The per-layer numbers come from a traced run that is
// separate from the timed pass: a prefix of the workload's own op stream is
// replayed by a single caller, one request in flight, at three successive
// boundaries — through the client and the wire, straight on the store, and
// on standalone wal, memtable and sstable instances fed the same records. A
// span is recorded around every call; a layer's self time is its span minus
// its children's, obtained by differencing the boundaries. Spans inside the
// program are a later issue.

// Span names. A span's parent is the span of the same request one boundary
// up.
const (
	spClientGet = iota
	spClientSet
	spClientScan
	spStoreGet
	spStoreSet
	spStoreScan
	spWALAppend
	spWALSync
	spMemPut
	spMemGet
	spMemCeil
	spSSTGet
	spSSTSeekNext
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.get", "client.set", "client.scan",
	"kvs.store.get", "kvs.store.set", "kvs.store.scan",
	"wal.append", "wal.sync", "memtable.put", "memtable.get", "memtable.ceil",
	"sstable.get", "sstable.seek_next",
}

// span is one timed call: which request, which layer call, when, and the
// layer call that caused it (-1 for a root).
type span struct {
	op     int32
	name   int8
	parent int8
	start  int64 // ns since the trace began
	end    int64
	calls  int32 // how many calls the span covers (a scan's Ceil loop is one span)
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(op int, name, parent int, start int64, calls int) {
	t.spans = append(t.spans, span{int32(op), int8(name), int8(parent), start, t.now(), int32(calls)})
}

// meanNS is the mean duration per call of the spans called name, and how
// many spans there were.
func (t *tracer) meanNS(name int) (float64, int) {
	var total int64
	var calls, n int
	for _, s := range t.spans {
		if int(s.name) == name {
			total += s.end - s.start
			calls += int(s.calls)
			n++
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return float64(total) / float64(calls), n
}

// perRequestNS is the mean time per request of kind spent in spans called
// name (zero for requests without one): what that layer costs the request.
func (t *tracer) perRequestNS(name int, requests int) float64 {
	if requests == 0 {
		return 0
	}
	var total int64
	for _, s := range t.spans {
		if int(s.name) == name {
			total += s.end - s.start
		}
	}
	return float64(total) / float64(requests)
}

// write stores the spans as JSON: {"names": [...], "spans": [[op, name,
// parent, start_ns, end_ns, calls], ...]}.
func (t *tracer) write(path string) error {
	rows := make([][6]int64, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [6]int64{int64(s.op), int64(s.name), int64(s.parent), s.start, s.end, int64(s.calls)}
	}
	data, err := json.Marshal(struct {
		Names []string   `json:"names"`
		Spans [][6]int64 `json:"spans"`
	}{spanNames[:], rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const traceMaxOps = 100_000

// perCall times n back-to-back calls of f and returns nanoseconds per call.
func perCall(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocsDuring returns heap allocations per call over n calls of f.
func mallocsDuring(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// traceKVS takes the per-layer measurements of one kvs workload on the
// system its timed pass just ran against.
//
// It returns the model after its own writes, which supersedes the timed
// pass's sharded models.
func traceKVS(ctx *runCtx, w kvsWork, sys *kvsSystem, ks *keyspace, streams []*opStream, res *result) (*opStream, error) {
	// One caller owns every key; its model starts where the timed pass's
	// sharded models ended, so the client boundary still verifies every answer.
	stream := newOpStream(ctx.seed, ks, 0, 1, w.mix, w.zipf, w.valueSize, 0)
	for key := range stream.ver {
		stream.ver[key], _ = streams[key%len(streams)].expected(key)
	}
	tr := &tracer{t0: time.Now()}
	durable := w.boot.sync == kvs.SyncGroup

	// Boundary 1: through kvs.Dial and the client, untraced then traced. The
	// untraced pass gives the cost of recording spans (trace.overhead_pct) and
	// sets how long a prefix fits the budget.
	cl, err := kvs.Dial(sys.srv.Addr(), 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	p := cl.Pipeline(1)
	roundTrip := func(o op) error {
		if err := send(p, ks, o, w.valueSize); err != nil {
			return err
		}
		if err := p.Flush(); err != nil {
			return err
		}
		r, err := p.Recv()
		if err != nil {
			return err
		}
		res.attempted++
		if err := checkAnswer(stream, o, r, w.valueSize); err != nil {
			res.failf("traced replay: %v", err)
		}
		return nil
	}
	budget := ctx.dur(0.2)
	var untraced []op
	t0 := time.Now()
	for len(untraced) < traceMaxOps && time.Since(t0) < budget {
		o := stream.next()
		untraced = append(untraced, o)
		if err := roundTrip(o); err != nil {
			return nil, err
		}
	}
	untracedNS := float64(time.Since(t0)) / float64(len(untraced))
	n := len(untraced)

	ops := make([]op, n)
	var counts [numOpKinds]int
	t0 = time.Now()
	for i := range ops {
		ops[i] = stream.next()
		counts[ops[i].kind]++
		s := tr.now()
		if err := roundTrip(ops[i]); err != nil {
			return nil, err
		}
		tr.add(i, spClientGet+int(ops[i].kind), -1, s, 1)
	}
	tracedNS := float64(time.Since(t0)) / float64(n)
	res.layers["trace.overhead_pct"] = 100 * (tracedNS - untracedNS) / untracedNS

	// Boundary 2: the same requests straight on Store.Get/Set/Scan.
	for i, o := range ops {
		key := []byte(ks.keys[o.key])
		s := tr.now()
		switch o.kind {
		case opGet:
			v, found, err := sys.store.Get(key)
			tr.add(i, spStoreGet, spClientGet, s, 1)
			res.attempted++
			if k, ok := valueKey(string(v)); err != nil || !found || !ok || k != o.key {
				res.failf("traced Store.Get %s: found=%v err=%v", ks.keys[o.key], found, err)
			}
		case opSet:
			err := sys.store.Set(key, []byte(valueFor(o.key, o.ver, w.valueSize)))
			tr.add(i, spStoreSet, spClientSet, s, 1)
			res.attempted++
			if err != nil {
				res.failf("traced Store.Set %s: %v", ks.keys[o.key], err)
			}
		default:
			es, err := sys.store.Scan(key, []byte(scanEnd(ks.keys[o.key])), scanLimit)
			tr.add(i, spStoreScan, spClientScan, s, 1)
			res.attempted++
			if err != nil || len(es) > scanLimit {
				res.failf("traced Store.Scan %s: %d entries, err=%v", ks.keys[o.key], len(es), err)
			}
		}
	}

	// Boundary 3: standalone wal.Log, memtable.Table and sstable.Reader
	// instances fed the same records. The readers open the store's own table
	// files, so they hold exactly what the store's readers hold.
	if err := traceLayers(ctx, tr, sys, ks, ops, w.valueSize, durable); err != nil {
		return nil, err
	}

	for k := opGet; k < numOpKinds; k++ {
		client, _ := tr.meanNS(spClientGet + int(k))
		store, _ := tr.meanNS(spStoreGet + int(k))
		res.layers["client.rtt_"+k.String()+"_us"] = client / 1000
		res.layers["kvs.store."+k.String()+"_us"] = store / 1000
		if counts[k] > 0 {
			res.layers["kvs.server.self_"+k.String()+"_us"] = (client - store) / 1000
		}
	}
	set, _ := tr.meanNS(spStoreSet)
	below := tr.perRequestNS(spWALAppend, counts[opSet]) + tr.perRequestNS(spWALSync, counts[opSet]) + tr.perRequestNS(spMemPut, counts[opSet])
	if counts[opSet] > 0 {
		res.layers["kvs.store.self_set_us"] = (set - below) / 1000
	}
	for name, key := range map[int]string{spWALAppend: "wal.append_ns", spMemPut: "memtable.put_ns", spMemGet: "memtable.get_ns",
		spMemCeil: "memtable.ceil_ns", spSSTSeekNext: "sstable.seek_next_ns"} {
		res.layers[key], _ = tr.meanNS(name)
	}
	syncNS, _ := tr.meanNS(spWALSync)
	res.layers["wal.sync_us"] = syncNS / 1000
	sstNS, sstN := tr.meanNS(spSSTGet)
	res.layers["sstable.get_us"] = sstNS / 1000

	// Allocations per request, on gets because they trigger no background
	// work. The wire figure is a get through the wire minus a get on the
	// store: server and in-process client ends together.
	someKey := []byte(ks.keys[0])
	someVal := []byte(valueFor(0, 1, w.valueSize))
	storeGet := mallocsDuring(2000, func() { _, _, _ = sys.store.Get(someKey) })
	wireGet := mallocsDuring(2000, func() { _, _ = cl.Get(ks.keys[0]) })
	res.layers["kvs.store.get_allocs_per_op"] = storeGet
	res.layers["kvs.server.allocs_per_op"] = wireGet - storeGet
	if !durable { // 2000 fsyncs would take longer than the figure is worth
		res.layers["kvs.store.set_allocs_per_op"] = mallocsDuring(2000, func() { _ = sys.store.Set(someKey, someVal) })
		_ = sys.store.Set(someKey, []byte(valueFor(0, stream.ver[0], w.valueSize)))
	}
	traceTaxes(sys, res)
	traceCheckers(sys.rt.Driver(), res)

	res.notef("traced %d requests at three boundaries (%d get, %d set, %d scan), %d spans; untraced %.1f us/request, traced %.1f",
		n, counts[opGet], counts[opSet], counts[opScan], len(tr.spans), untracedNS/1000, tracedNS/1000)
	confirm := func(ok bool, claim string) {
		verdict := "confirmed"
		if !ok {
			verdict = "NOT CONFIRMED"
		}
		res.notef("dominant layer %s: %s", verdict, claim)
	}
	switch w.name {
	case "kvs_write_durable":
		confirm(syncNS > set/2, fmt.Sprintf("wal.sync_us %.1f is more than half of the SET span %.1f us", syncNS/1000, set/1000))
	case "kvs_mixed_cpu":
		var self, store float64
		for k := opGet; k < numOpKinds; k++ {
			share := float64(counts[k]) / float64(n)
			self += share * res.layers["kvs.server.self_"+k.String()+"_us"]
			store += share * res.layers["kvs.store."+k.String()+"_us"]
		}
		confirm(self >= store, fmt.Sprintf("kvs.server.self %.1f us is at least kvs.store %.1f us over the mix", self, store))
	case "kvs_read_spill":
		memNS, _ := tr.meanNS(spMemGet)
		confirm(sstNS >= memNS, fmt.Sprintf("sstable.get_us %.2f is at least memtable.get_ns %.0f (%d of %d gets went to tables)",
			sstNS/1000, memNS, sstN, counts[opGet]))
	}
	return stream, tr.write(filepath.Join("out", "trace-"+w.name+".json"))
}

// traceLayers is the third boundary of traceKVS. It mirrors what the store
// does with a request, layer call by layer call, on instances of its own.
func traceLayers(ctx *runCtx, tr *tracer, sys *kvsSystem, ks *keyspace, ops []op, valueSize int, durable bool) error {
	parts := sys.store.Partitions()
	log, err := wal.Open(filepath.Join(ctx.outDir, "trace-wal.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	mems := make([]*memtable.Table, parts)
	tables := make([][]*sstable.Reader, parts) // newest first, like the store's
	for i := range mems {
		mems[i] = memtable.New()
		for _, path := range sys.store.TablePaths(i) {
			r, err := sstable.Open(path)
			if err != nil {
				return fmt.Errorf("standalone reader on %s: %w", path, err)
			}
			defer r.Close()
			tables[i] = append(tables[i], r)
		}
	}
	for i, o := range ops {
		name := ks.keys[o.key]
		key := []byte(name)
		part := partitionOf(name, parts)
		switch o.kind {
		case opSet:
			value := []byte(valueFor(o.key, o.ver, valueSize))
			payload := append(append([]byte{1}, key...), value...)
			s := tr.now()
			err := log.Append(payload)
			tr.add(i, spWALAppend, spStoreSet, s, 1)
			if err != nil {
				return err
			}
			if durable {
				s = tr.now()
				err = log.Sync()
				tr.add(i, spWALSync, spStoreSet, s, 1)
				if err != nil {
					return err
				}
			}
			s = tr.now()
			mems[part].Put(key, value)
			tr.add(i, spMemPut, spStoreSet, s, 1)
		case opGet:
			s := tr.now()
			_, _, found := mems[part].Get(key)
			tr.add(i, spMemGet, spStoreGet, s, 1)
			if !found && len(tables[part]) > 0 {
				s = tr.now()
				for _, t := range tables[part] {
					if _, _, ok, err := t.Get(key); err != nil {
						return err
					} else if ok {
						break
					}
				}
				tr.add(i, spSSTGet, spStoreGet, s, 1)
			}
		default:
			s := tr.now()
			seek, calls := key, 0
			for ; calls < scanLimit; calls++ {
				e, ok := mems[part].Ceil(seek)
				if !ok {
					calls++
					break
				}
				seek = append(e.Key, 0)
			}
			tr.add(i, spMemCeil, spStoreScan, s, calls)
			if len(tables[part]) > 0 {
				s = tr.now()
				calls = 0
				for _, t := range tables[part] {
					it := t.Seek(key)
					for j := 0; j < scanLimit; j++ {
						calls++
						if _, ok, err := it.Next(); err != nil {
							return err
						} else if !ok {
							break
						}
					}
				}
				tr.add(i, spSSTSeekNext, spStoreScan, s, calls)
			}
		}
	}
	return nil
}
