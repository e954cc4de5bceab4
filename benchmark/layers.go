package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gowatchdog/internal/coord"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/memtable"
	"gowatchdog/internal/sstable"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdmesh/wire"
	"gowatchdog/internal/wdobs"
)

// Single-layer measurements taken only in a traced run: each times calls
// into one module's public functions from outside.

// traceTaxes times what every request pays whether or not anything is wrong:
// a fault point with nothing armed, a registry counter, a hook capture.
func traceTaxes(sys *kvsSystem, res *result) {
	inj := sys.store.Injector()
	res.layers["faultinject.fire_disarmed_ns"] = perCall(1_000_000, func() { _ = inj.Fire("kvs.wal.append") })
	counter := sys.store.Metrics().Counter("benchmark.scratch")
	res.layers["gauge.counter_inc_ns"] = perCall(1_000_000, counter.Inc)
	res.layers["watchdog.hook_putall_ns"] = hookPutAllNS(sys.factory)
}

// hookPutAllNS times the capture a store's write path makes: a three-entry
// PutAll with a record-sized byte slice, which the context deep-copies.
func hookPutAllNS(f *watchdog.Factory) float64 {
	ctx := f.Context("benchmark.scratch")
	record := []byte(valueFor(0, 1, 300))
	return perCall(100_000, func() {
		ctx.PutAll(map[string]any{"partition": 1, "wal_path": "wal.log", "record": record})
	})
}

// traceCheckers times each of the store's generated checkers through
// Driver.CheckNow, the same path a scheduled execution takes.
func traceCheckers(d *watchdog.Driver, res *result) {
	for _, name := range []string{"flusher", "wal", "indexer", "compaction", "partition"} {
		var lat []float64
		t0 := time.Now()
		// Ten runs, or fewer of a checker that takes long: the fsck-style
		// partition checker re-reads the whole WAL and every table.
		for i := 0; i < 10 && time.Since(t0) < 300*time.Millisecond; i++ {
			rep, err := d.CheckNow("kvs." + name)
			if err != nil || rep.Status != watchdog.StatusHealthy {
				continue // still pending its context, or in flight on the schedule
			}
			lat = append(lat, us(rep.Latency))
		}
		res.layers["checker.kvs."+name+"_us"] = median(lat)
	}
}

// traceStorage times the flush and compaction building blocks on standalone
// instances: snapshotting a memtable the size of the flush threshold,
// writing it as a table, and merging two such tables.
func traceStorage(ctx *runCtx, valueSize int, res *result) error {
	const entries = 4096
	build := func(ver uint32) (*memtable.Table, float64) {
		t := memtable.New()
		var mb float64
		for i := 0; i < entries; i++ {
			k, v := keyName(i), valueFor(i, ver, valueSize)
			t.Put([]byte(k), []byte(v))
			mb += float64(len(k)+len(v)) / (1 << 20)
		}
		return t, mb
	}
	older, mb := build(1)
	newer, _ := build(2)
	t0 := time.Now()
	snapshot := newer.Entries()
	res.layers["memtable.entries_us"] = us(time.Since(t0))

	paths := []string{filepath.Join(ctx.outDir, "trace-a.sst"), filepath.Join(ctx.outDir, "trace-b.sst")}
	t0 = time.Now()
	if err := sstable.Write(paths[0], snapshot); err != nil {
		return err
	}
	res.layers["sstable.write_ms_per_mb"] = ms(time.Since(t0)) / mb
	if err := sstable.Write(paths[1], older.Entries()); err != nil {
		return err
	}
	var readers []*sstable.Reader
	for _, p := range paths {
		r, err := sstable.Open(p)
		if err != nil {
			return err
		}
		defer r.Close()
		readers = append(readers, r)
	}
	t0 = time.Now()
	if err := sstable.Merge(filepath.Join(ctx.outDir, "trace-merged.sst"), readers, true); err != nil {
		return err
	}
	res.layers["sstable.merge_ms_per_mb"] = ms(time.Since(t0)) / (2 * mb)
	return nil
}

// traceChain takes the watcher chain's single-layer measurements.
func traceChain(sys *chainSystem, res *result) {
	res.layers["watchdog.hook_putall_ns"] = hookPutAllNS(sys.factory)
	traceCheckers(sys.rt.Driver(), res)

	// The observer's per-execution path: a healthy report following a healthy
	// one, which counts and histograms but journals nothing.
	obs := wdobs.New()
	healthy := watchdog.Report{Checker: "benchmark.scratch", Status: watchdog.StatusHealthy, Latency: 40 * time.Microsecond, Time: time.Now()}
	res.layers["wdobs.observe_report_ns"] = perCall(1_000_000, func() { obs.ObserveReport(healthy, watchdog.StatusHealthy, false) })

	// One journal entry through to a JSONL file sink.
	sink, err := os.Create(filepath.Join(sys.dir, "trace-journal.jsonl"))
	if err == nil {
		j := wdobs.NewJournal(512)
		j.SetSink(sink)
		failing := wdobs.Event{Kind: wdobs.KindReport, Report: watchdog.Report{
			Checker: "benchmark.scratch", Status: watchdog.StatusError, Err: errSynthFlap, Latency: 40 * time.Microsecond, Time: time.Now()}}
		res.layers["wdobs.journal_append_ns"] = perCall(20_000, func() { j.Append(failing) })
		_ = sink.Close()
	}

	// Steady-state ingest: publish into the ring and evaluate every quarter
	// ring, against the workload's own rules, with thresholds never crossed.
	eng, err := wdcep.NewEngine(wdcep.Config{Rules: chainRules()})
	if err == nil {
		base := time.Now()
		const evalEvery = 256
		i := 0
		res.layers["wdcep.ingest_ns_per_event"] = perCall(1_000_000, func() {
			ev := wdcep.Event{Kind: wdcep.EventReport, Checker: "kvs.wal", Status: watchdog.StatusHealthy, Time: base.Add(time.Duration(i) * time.Microsecond)}
			eng.Publish(ev)
			if i++; i%evalEvery == 0 {
				eng.Evaluate(ev.Time)
			}
		})
	}
}

// traceMesh times the wire codec a TCP mesh would use on a frame the size
// this cluster gossips: JSON encode, frame, unframe, decode.
func traceMesh(c *meshCluster, res *result) {
	msg := wdmesh.Message{From: c.names[0], Self: wdmesh.Digest{Node: c.names[0], Epoch: 1, Seq: 100, Healthy: true}}
	for i := 1; i <= 32; i++ { // a typical delta: a few dozen relayed digests
		msg.Known = append(msg.Known, wdmesh.Digest{Node: c.names[i], Epoch: 1, Seq: uint64(100 + i), Healthy: true})
	}
	var buf bytes.Buffer
	res.layers["wdmesh.wire_roundtrip_ns_per_frame"] = perCall(2000, func() {
		buf.Reset()
		payload, _ := json.Marshal(&msg)
		_ = wire.Write(&buf, wire.TypeData, payload)
		_, got, _ := wire.Read(&buf, wire.MaxFrame)
		var back wdmesh.Message
		_ = json.Unmarshal(got, &back)
	})
}

// traceDetect adds the checker timings and the paper's own case study to
// detect_faults' traced run.
func traceDetect(ctx *runCtx, sys *kvsSystem, res *result) error {
	traceTaxes(sys, res)
	traceCheckers(sys.rt.Driver(), res)
	trials := 8
	if ctx.quick {
		trials = 1
	}
	var lat []float64
	for trial := 0; trial < trials; trial++ {
		d, err := zk2201Trial(filepath.Join(ctx.outDir, fmt.Sprintf("zk-%d", trial)))
		if err != nil {
			return fmt.Errorf("zk2201 trial %d: %w", trial, err)
		}
		res.attempted++
		if d < 0 {
			res.failf("zk2201 trial %d: the hang was not detected", trial)
			continue
		}
		lat = append(lat, ms(d))
	}
	res.layers["coord.zk2201_detect_ms"] = median(lat)
	res.noteTiming("ZK-2201 hang (Arm to stuck report)", "ms", summarize(lat))
	return nil
}

// zk2201Trial reproduces the paper's section 4.2 case study on coord: the
// network path to the follower black-holes inside the commit critical
// section. It returns the time from arming the fault to the sync checker's
// stuck report, or -1 if none came.
func zk2201Trial(scratch string) (time.Duration, error) {
	follower, err := coord.NewFollower("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer follower.Close()
	factory := watchdog.NewFactory()
	leader := coord.NewLeader(coord.LeaderConfig{
		FollowerAddr:      follower.Addr(),
		HeartbeatInterval: detectInterval / 2,
		WatchdogFactory:   factory,
	})
	leader.Start()
	defer leader.Close()
	shadow, err := wdio.NewFS(scratch, 0)
	if err != nil {
		return 0, err
	}
	driver := watchdog.New(watchdog.WithFactory(factory), watchdog.WithInterval(detectInterval), watchdog.WithTimeout(detectTimeout))
	leader.InstallWatchdog(driver, shadow)
	stuck := make(chan time.Time, 1)
	driver.OnReport(func(rep watchdog.Report) {
		if rep.Checker == "coord.sync" && rep.Status == watchdog.StatusStuck {
			select {
			case stuck <- time.Now():
			default:
			}
		}
	})
	if err := leader.SubmitWait(coord.OpCreate, "/app", []byte("x"), 5*time.Second); err != nil {
		return 0, err
	}
	driver.Start()
	defer driver.Stop()
	defer leader.Injector().Clear()
	armed := time.Now()
	leader.Injector().Arm(coord.FaultSyncSend, faultinject.Fault{Kind: faultinject.Hang})
	select {
	case at := <-stuck:
		return at.Sub(armed), nil
	case <-time.After(4 * detectTimeout):
		return -1, nil
	}
}
