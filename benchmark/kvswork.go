package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gowatchdog/internal/kvs"
)

// kvsWork is the shape of one kvs_* workload.
type kvsWork struct {
	name      string
	boot      kvsBoot
	keys      int
	valueSize int
	mix       mix
	zipf      bool
	// preloadFlushEvery > 0 preloads through the flusher every that many keys
	// and then settles the layout with FlushAll(true) and CompactAll().
	preload           bool
	preloadFlushEvery int
	depth             int
	rate              float64 // > 0 makes the loop open
	warmup            time.Duration
	// abba alternates the watchdog on, off, off, on over four equal segments
	// of the measured time; ops_per_s then comes from the on segments.
	abba bool
	// reopen closes the store after the run, opens its directory again and
	// reads back every acknowledged key.
	reopen bool
}

// clientConns is min(nproc, 4): one generator goroutine and connection per
// core, capped where the generator would start to crowd the server out.
func clientConns() int { return min(runtime.NumCPU(), 4) }

const measureWindows = 20 // the measured time is cut into this many windows

// procStats is a reading of the process's own resource use.
type procStats struct {
	cpu     time.Duration
	gcPause time.Duration
	rssMB   float64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// setupTimes sets the system up several times, tearing down all but the last
// one, and returns that one with the median set-up time. Set-up is repeated
// because a later change is rejected for moving work into it, and one sample
// of something this short is mostly noise: at least setupMinRepeats times,
// then on until setupMinTotal has been spent or setupMaxRepeats reached.
func setupTimes[T any](quick bool, setUp func() (T, error), tearDown func(T)) (T, float64, error) {
	var none T
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		sys, err := setUp()
		if err != nil {
			return none, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		n := len(times)
		if quick || n >= setupMaxRepeats || (n >= setupMinRepeats && total >= setupMinTotal) {
			return sys, median(times), nil
		}
		tearDown(sys)
	}
}

const (
	setupMinRepeats = 3
	setupMaxRepeats = 25
	setupMinTotal   = time.Second
)

func runKVS(ctx *runCtx, w kvsWork) (*result, error) {
	res := newResult(w.name)
	if ctx.quick {
		w.keys /= 16
	}
	conns := clientConns()
	var ks *keyspace
	var flushAllMS, compactAllMS float64

	// Set-up is everything between nothing and a system ready for its first
	// request: the generator's keys, the directory, the store, the server,
	// the watchdog, and the preloaded data in the layout the workload wants.
	sys, setupS, err := setupTimes(ctx.quick, func() (*kvsSystem, error) {
		ks = newKeyspace(w.keys)
		var prepare func(string) error
		if w.preload && w.boot.sync == kvs.SyncGroup {
			prepare = func(dataDir string) error { return preloadOffline(dataDir, ks, w.valueSize) }
		}
		sys, err := bootKVS(ctx.outDir, w.boot, prepare)
		if err != nil {
			return nil, err
		}
		if w.preload && prepare == nil {
			if err := preload(sys.store, ks, w.valueSize, w.preloadFlushEvery); err != nil {
				sys.close()
				return nil, err
			}
		}
		if w.preloadFlushEvery > 0 {
			t0 := time.Now()
			sys.store.FlushAll(true)
			flushAllMS = ms(time.Since(t0))
			t0 = time.Now()
			sys.store.CompactAll()
			compactAllMS = ms(time.Since(t0))
		}
		return sys, nil
	}, func(s *kvsSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.e2e["setup_s"] = setupS

	var initial uint32
	if w.preload {
		initial = 1
	}
	streams := make([]*opStream, conns)
	for i := range streams {
		streams[i] = newOpStream(ctx.seed, ks, i, conns, w.mix, w.zipf, w.valueSize, initial)
	}
	cfg := loadCfg{
		conns:     conns,
		depth:     w.depth,
		rate:      w.rate,
		warmup:    min(w.warmup, ctx.dur(0.2)),
		window:    ctx.dur(1.0 / measureWindows),
		windows:   measureWindows,
		valueSize: w.valueSize,
	}
	begin := time.Now()
	stopABBA := func() {}
	if w.abba {
		stopABBA = abbaToggle(sys, begin.Add(cfg.warmup), cfg.window*measureWindows/4)
	}
	before := readProc()
	lr, err := runLoad(sys.srv.Addr(), ks, streams, cfg, begin)
	stopABBA()
	if err != nil {
		return nil, err
	}
	after := readProc()
	res.attempted, res.failed = lr.attempted, lr.failed
	if lr.firstErr != nil {
		res.notef("first wrong answer: %v", lr.firstErr)
	}

	wdOn := func(win int) bool { return true }
	if w.abba {
		wdOn = func(win int) bool { seg := win * 4 / measureWindows; return seg == 0 || seg == 3 }
	}
	res.e2e["ops_per_s"] = lr.opsPerSec(cfg.window, wdOn)
	all := lr.latencies(allKinds...)
	res.e2e["lat_mean95_us"] = trimmedMean(all)
	res.e2e["lat_p90_us"] = percentile(all, 90)
	if w.abba {
		off := lr.opsPerSec(cfg.window, func(win int) bool { return !wdOn(win) })
		res.layers["kvs.ops_per_s_wdoff"] = off
		res.layers["watchdog.wd_overhead_pct"] = 100 * (off - res.e2e["ops_per_s"]) / off
	}
	for _, k := range allKinds {
		lat := lr.latencies(k)
		if len(lat) == 0 {
			continue
		}
		res.noteTiming("latency "+k.String(), "us", summarize(lat))
		if k != opScan {
			res.layers["client."+k.String()+"_p50_us"] = percentile(lat, 50)
			res.layers["client."+k.String()+"_p99_us"] = percentile(lat, 99)
		}
	}
	if len(lr.late) > 0 {
		sort.Float64s(lr.late)
		res.layers["loadgen.late_p99_us"] = percentile(lr.late, 99)
		res.noteTiming("generator lateness", "us", summarize(lr.late))
	}
	res.layers["proc.cpu_s_per_mop"] = (after.cpu - before.cpu).Seconds() / float64(max(lr.attempted, 1)) * 1e6
	res.layers["proc.gc_pause_total_ms"] = ms(after.gcPause - before.gcPause)
	res.layers["proc.rss_peak_mb"] = after.rssMB
	res.layers["kvs.store.flush_all_ms"] = flushAllMS
	res.layers["kvs.store.compact_all_ms"] = compactAllMS
	res.layers["kvs.store.tables_per_partition"] = sys.tablesPerPartition()
	for _, name := range []string{"kvs.flushes", "kvs.compactions"} {
		if c, ok := sys.store.Metrics().LookupCounter(name); ok {
			res.layers[name] = float64(c.Value())
		}
	}
	res.layers["watchdog.first_report_p50_ms"] = sys.firstReportP50()
	res.layers["wdruntime.start_ms"] = sys.startMS
	if n := sys.alarms.Load(); n > 0 {
		// No fault is injected on a kvs_* workload, so any alarm is false.
		res.layers["client.false_alarms"] = float64(n)
		res.notef("watchdog raised %d alarm(s) on a fault-free workload", n)
	}

	if ctx.trace {
		model, err := traceKVS(ctx, w, sys, ks, streams, res)
		if err != nil {
			return nil, err
		}
		streams = []*opStream{model}
		if w.boot.flushThreshold == 0 { // the workload flushes and compacts
			if err := traceStorage(ctx, w.valueSize, res); err != nil {
				return nil, err
			}
		}
	}

	res.layers["wdruntime.drain_close_ms"] = sys.stop()
	if userBytes := userBytesWritten(streams, ks, w); userBytes > 0 {
		res.layers["kvs.store.disk_bytes_per_user_byte"] = float64(dirBytes(sys.dataDir())) / float64(userBytes)
	}
	if w.reopen {
		if err := reopenCheck(sys, ks, streams, w.valueSize, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// userBytesWritten is the live user data the store must hold at the end:
// every key written at least once, at one value each.
func userBytesWritten(streams []*opStream, ks *keyspace, w kvsWork) int64 {
	var live int64
	for _, s := range streams {
		for _, v := range s.ver {
			if v > 0 {
				live++
			}
		}
	}
	return live * int64(w.valueSize+len(ks.keys[0]))
}

// abbaToggle stops and restarts the watchdog driver so that it runs during
// the first and last quarter of the measured time and rests in between. The
// store's hooks stay compiled in and firing throughout: what the off
// segments remove is the checkers' own execution. The returned function
// stops the toggling and leaves the driver running.
func abbaToggle(sys *kvsSystem, start time.Time, segment time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		d := sys.rt.Driver()
		steps := []struct {
			at time.Time
			do func()
		}{{start.Add(segment), d.Stop}, {start.Add(3 * segment), d.Start}}
		for _, s := range steps {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(s.at)):
				s.do()
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		sys.rt.Driver().Start()
	}
}

// reopenCheck is the durability half of the oracle: the store is closed, its
// directory opened again, and every key a set was acknowledged for must read
// back at exactly the acknowledged version.
func reopenCheck(sys *kvsSystem, ks *keyspace, streams []*opStream, valueSize int, res *result) error {
	t0 := time.Now()
	store, err := kvs.Open(kvs.Config{Dir: sys.dataDir()})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer store.Close()
	res.layers["kvs.store.reopen_ms"] = ms(time.Since(t0))
	checked := 0
	for _, s := range streams {
		for slot, ver := range s.ver {
			if ver == 0 {
				continue
			}
			key := slot*s.conns + s.conn
			got, ok, err := store.Get([]byte(ks.keys[key]))
			res.attempted++
			checked++
			if err != nil || !ok || !checkValue(string(got), key, ver, valueSize) {
				res.failf("after reopen %s: want version %d, got %.24q (found=%v err=%v)", ks.keys[key], ver, got, ok, err)
			}
		}
	}
	res.notef("reopened the store and read back %d acknowledged keys", checked)
	return nil
}

func runMixedCPU(ctx *runCtx) (*result, error) {
	return runKVS(ctx, kvsWork{
		name: "kvs_mixed_cpu",
		// SyncNone and a flush threshold far above the run's volume: the data
		// never leaves the memtable and nothing waits for a disk.
		boot:      kvsBoot{sync: kvs.SyncNone, flushThreshold: 1 << 40},
		keys:      64 << 10,
		valueSize: 64,
		mix:       mix{get: 70, set: 25, scan: 5},
		preload:   true,
		depth:     32,
		warmup:    2 * time.Second,
		abba:      true,
	})
}

func runMixedOpen(ctx *runCtx) (*result, error) {
	return runKVS(ctx, kvsWork{
		name:      "kvs_mixed_open",
		boot:      kvsBoot{}, // production defaults
		keys:      64 << 10,
		valueSize: 256,
		mix:       mix{get: 70, set: 25, scan: 5},
		preload:   true,
		depth:     1024, // far above what 8k ops/s keeps in flight, so the sender never waits
		rate:      8000,
		warmup:    time.Second,
	})
}

func runWriteDurable(ctx *runCtx) (*result, error) {
	return runKVS(ctx, kvsWork{
		name:      "kvs_write_durable",
		boot:      kvsBoot{}, // SyncGroup with budget 0, default flush and compaction
		keys:      64 << 10,
		valueSize: 256,
		mix:       mix{set: 100},
		depth:     32,
		warmup:    time.Second,
		reopen:    true,
	})
}

func runReadSpill(ctx *runCtx) (*result, error) {
	return runKVS(ctx, kvsWork{
		name: "kvs_read_spill",
		// No background compaction while clients read: CompactPartition closes
		// the tables it merged while a concurrent get may still hold them, and
		// that get then fails with "corrupt table" (see README.md, Caveats).
		boot:              kvsBoot{sync: kvs.SyncNone, compactionInterval: time.Hour},
		keys:              200_000,
		valueSize:         256,
		mix:               mix{get: 95, set: 5},
		zipf:              true,
		preload:           true,
		preloadFlushEvery: 4096, // about 1 MiB of values between flusher visits
		depth:             32,
		warmup:            time.Second,
	})
}
