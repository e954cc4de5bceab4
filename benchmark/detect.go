package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/watchdog"
)

// The repository's scaled watchdog cadence (the paper's 1 s / 6 s, divided so
// a campaign fits in seconds); internal/experiment and cmd/wdchaos use it too.
const (
	detectInterval = 50 * time.Millisecond
	detectTimeout  = 300 * time.Millisecond
	phaseStrata    = 10
)

// injection is one scheduled fault.
type injection struct {
	point string
	kind  faultinject.Kind
	owner string  // the checker that mimics the faulted operation
	op    string  // the operation a pinpointing report must name
	phase float64 // share of a check interval after the owner's last report
}

// faultSite says which checker owns a fault point and what its report's
// Site.Op reads when it pinpoints that operation.
var faultSite = map[string]struct{ owner, op string }{
	kvs.FaultWALAppend:    {"kvs.wal", "wal.Append"},
	kvs.FaultIndexerPut:   {"kvs.indexer", "memtable.Put"},
	kvs.FaultFlushWrite:   {"kvs.flusher", "sstable.Write"},
	kvs.FaultCompactMerge: {"kvs.compaction", "sstable.Merge"},
}

// buildSchedule lays out nErr error and nHang hang injections. Detection
// latency is mostly the wait for the owner's next check, so where in the
// interval a fault lands decides the sample; stratifying that phase over
// tenths of an interval, instead of drawing it, makes the medians repeat.
// The seed only shuffles the order.
func buildSchedule(seed int64, nErr, nHang int) []injection {
	errPoints := []string{kvs.FaultWALAppend, kvs.FaultIndexerPut, kvs.FaultFlushWrite, kvs.FaultCompactMerge}
	hangPoints := []string{kvs.FaultFlushWrite, kvs.FaultCompactMerge}
	var out []injection
	add := func(point string, kind faultinject.Kind, stratum int) {
		site := faultSite[point]
		out = append(out, injection{point, kind, site.owner, site.op, float64(stratum%phaseStrata) / phaseStrata})
	}
	for i := 0; i < nErr; i++ {
		add(errPoints[i%len(errPoints)], faultinject.Error, i/len(errPoints))
	}
	for i := 0; i < nHang; i++ {
		add(hangPoints[i%len(hangPoints)], faultinject.Hang, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stampedReport and stampedAlarm carry the wall time the driver delivered them.
type stampedReport struct {
	rep watchdog.Report
	at  time.Time
}

type stampedAlarm struct {
	alarm watchdog.Alarm
	at    time.Time
}

// faultWindow is the injector's view of the watchdog: it receives every
// report and alarm, and counts as false any alarm raised while no fault is
// armed and the grace after the last one has run out.
type faultWindow struct {
	reports chan stampedReport // buffered well past one interval's reports; overflow is dropped, the next report serves as well
	alarms  chan stampedAlarm

	mu          sync.Mutex
	open        bool
	graceUntil  time.Time
	falseAlarms int
}

func newFaultWindow() *faultWindow {
	return &faultWindow{reports: make(chan stampedReport, 256), alarms: make(chan stampedAlarm, 256)}
}

func (f *faultWindow) onReport(rep watchdog.Report) {
	select {
	case f.reports <- stampedReport{rep, time.Now()}:
	default:
	}
}

func (f *faultWindow) onAlarm(a watchdog.Alarm) {
	now := time.Now()
	f.mu.Lock()
	inside := f.open || now.Before(f.graceUntil)
	if !inside {
		f.falseAlarms++
	}
	f.mu.Unlock()
	if inside {
		select {
		case f.alarms <- stampedAlarm{a, now}:
		default:
		}
	}
}

func (f *faultWindow) setOpen(open bool, grace time.Duration) {
	f.mu.Lock()
	f.open = open
	if !open {
		f.graceUntil = time.Now().Add(grace)
	}
	f.mu.Unlock()
}

// awaitReport discards reports until pred accepts one, or the deadline passes.
func (f *faultWindow) awaitReport(pred func(watchdog.Report) bool, deadline time.Duration) (stampedReport, bool) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case r := <-f.reports:
			if pred(r.rep) {
				return r, true
			}
		case <-timer.C:
			return stampedReport{}, false
		}
	}
}

func (f *faultWindow) drain() {
	for {
		select {
		case <-f.reports:
		case <-f.alarms:
		default:
			return
		}
	}
}

// detectStats is what the injection loop measured.
type detectStats struct {
	errorMS, hangMS, clearMS []float64
	allUS                    []float64
	injected, missed         int
	pinpointed               int
	elapsed                  time.Duration
}

// inject runs the schedule against sys: for each fault, wait for a healthy
// report from the owning checker, wait out the fault's phase, arm, time the
// alarm, clear, and time the return to Driver.Healthy().
func (f *faultWindow) inject(sys *kvsSystem, schedule []injection) detectStats {
	var st detectStats
	inj := sys.store.Injector()
	d := sys.rt.Driver()
	begin := time.Now()
	for _, in := range schedule {
		f.drain()
		last, ok := f.awaitReport(func(r watchdog.Report) bool {
			return r.Checker == in.owner && r.Status == watchdog.StatusHealthy
		}, 20*detectInterval)
		if !ok {
			st.injected++
			st.missed++
			continue
		}
		time.Sleep(time.Until(last.at.Add(time.Duration(in.phase * float64(detectInterval)))))

		f.setOpen(true, 0)
		armed := time.Now()
		inj.Arm(in.point, faultinject.Fault{Kind: in.kind})
		st.injected++
		select {
		case a := <-f.alarms:
			lat := a.at.Sub(armed)
			st.allUS = append(st.allUS, us(lat))
			if in.kind == faultinject.Hang {
				st.hangMS = append(st.hangMS, ms(lat))
			} else {
				st.errorMS = append(st.errorMS, ms(lat))
			}
			if a.alarm.Report.Site.Op == in.op {
				st.pinpointed++
			}
		case <-time.After(4 * detectTimeout):
			st.missed++
		}

		cleared := time.Now()
		inj.Disarm(in.point)
		for !d.Healthy() {
			if _, ok := f.awaitReport(func(watchdog.Report) bool { return true }, 20*detectInterval); !ok {
				break
			}
		}
		st.clearMS = append(st.clearMS, ms(time.Since(cleared)))
		f.setOpen(false, 2*detectInterval)
	}
	st.elapsed = time.Since(begin)
	return st
}

func runDetectFaults(ctx *runCtx) (*result, error) {
	res := newResult("detect_faults")
	const keys, valueSize = 4096, 64
	var ks *keyspace
	win := newFaultWindow()
	owners := map[string]bool{}
	for _, s := range faultSite {
		owners[s.owner] = true
	}

	sys, setupS, err := setupTimes(ctx.quick, func() (*kvsSystem, error) {
		ks = newKeyspace(keys)
		win.drain()
		sys, err := bootKVS(ctx.outDir, kvsBoot{
			sync: kvs.SyncNone,
			// Small, frequent flushes and compactions: the flusher's hook only
			// fires on a real flush, and a 2k ops/s trickle would otherwise
			// never fill a 1 MiB memtable.
			flushThreshold:     32 << 10,
			flushInterval:      100 * time.Millisecond,
			compactionInterval: 500 * time.Millisecond,
			wdInterval:         detectInterval,
			wdTimeout:          detectTimeout,
			onReport:           win.onReport,
			onAlarm:            win.onAlarm,
		}, nil)
		if err != nil {
			return nil, err
		}
		if err := preload(sys.store, ks, valueSize, 0); err != nil {
			sys.close()
			return nil, err
		}
		sys.store.FlushAll(true) // feeds the flusher checker's context
		// Ready means every owning checker has run healthy once.
		win.setOpen(true, 0) // nothing is a false alarm before the system is up
		seen := map[string]bool{}
		_, ok := win.awaitReport(func(r watchdog.Report) bool {
			if owners[r.Checker] && r.Status == watchdog.StatusHealthy {
				seen[r.Checker] = true
			}
			return len(seen) == len(owners)
		}, 5*time.Second)
		win.setOpen(false, 0)
		if !ok {
			sys.close()
			return nil, fmt.Errorf("checkers never all reported healthy (saw %v)", seen)
		}
		return sys, nil
	}, func(s *kvsSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.e2e["setup_s"] = setupS

	// One paced connection keeps the hooks fed: a request every 500 us.
	stop := make(chan struct{})
	bgDone := make(chan struct{})
	var bg *loadResult
	var bgErr error
	stream := newOpStream(ctx.seed, ks, 0, 1, mix{get: 70, set: 25, scan: 5}, false, valueSize, 1)
	go func() {
		defer close(bgDone)
		bg, bgErr = runLoad(sys.srv.Addr(), ks, []*opStream{stream}, loadCfg{
			conns: 1, depth: 1, pace: 500 * time.Microsecond,
			window: time.Hour, windows: 1, valueSize: valueSize,
			faultsExpected: true, stop: stop,
		}, time.Now())
	}()

	units := max(1, int(ctx.seconds/defaultSeconds+0.5))
	nErr, nHang := 40*units, 10*units
	if ctx.quick {
		nErr, nHang = 4, 1
	}
	st := win.inject(sys, buildSchedule(ctx.seed, nErr, nHang))
	close(stop)
	<-bgDone
	if bgErr != nil {
		return nil, bgErr
	}

	res.attempted = int64(st.injected) + bg.attempted
	res.failed = int64(st.missed) + bg.failed
	if bg.firstErr != nil {
		res.notef("first wrong answer on the background connection: %v", bg.firstErr)
	}
	if len(st.allUS) == 0 {
		return nil, fmt.Errorf("no injection out of %d was detected", st.injected)
	}
	sort.Float64s(st.allUS)
	res.e2e["ops_per_s"] = float64(st.injected) / st.elapsed.Seconds()
	res.e2e["lat_mean95_us"] = trimmedMean(st.allUS)
	res.e2e["lat_p90_us"] = percentile(st.allUS, 90)
	errT, hangT, clrT := summarize(st.errorMS), summarize(st.hangMS), summarize(st.clearMS)
	res.layers["client.detect_error_p50_ms"] = errT.P50
	res.layers["client.detect_hang_p50_ms"] = hangT.P50
	res.layers["client.clear_p50_ms"] = clrT.P50
	win.mu.Lock()
	res.layers["client.false_alarms"] = float64(win.falseAlarms)
	win.mu.Unlock()
	res.layers["checker.pinpoint_ok_ratio"] = float64(st.pinpointed) / float64(len(st.allUS))
	res.layers["watchdog.first_report_p50_ms"] = sys.firstReportP50()
	res.layers["wdruntime.start_ms"] = sys.startMS
	res.noteTiming("detect error (Arm to OnAlarm)", "ms", errT)
	res.noteTiming("detect hang (Arm to OnAlarm)", "ms", hangT)
	res.noteTiming("clear (Disarm to Healthy)", "ms", clrT)
	res.notef("%d injections in %.1f s, %d missed; background connection: %d requests, %d refused while a fault was armed",
		st.injected, st.elapsed.Seconds(), st.missed, bg.attempted, bg.refused)

	if ctx.trace {
		if err := traceDetect(ctx, sys, res); err != nil {
			return nil, err
		}
	}
	res.layers["wdruntime.drain_close_ms"] = sys.stop()
	return res, nil
}
