package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"gowatchdog/internal/detect"
	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/checkers"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdruntime"
)

// Checker-source selectors for the ablation targets (EXPERIMENTS.md E13,
// E1–E2): the same substrate and fault points, scored under different checker
// suites, so the verdicts isolate what each source of checkers buys.
const (
	// CheckersReduced installs the hand-tuned suite produced by mainline
	// region reduction (InstallWatchdog) — the §4 baseline.
	CheckersReduced = "reduced"

	// The detector arms (kvs only) replace the watchdog with one of the
	// detectors the paper compares it against (Tables 1–2). Each registers a
	// single checker named after the arm, which every fault point is
	// attributed to.

	// CheckersProbe is a client set/get round trip through kvs.Serve.
	CheckersProbe = "probe"
	// CheckersSignal samples four health indicators of the store's metric
	// registry: flush and mutation progress, error rate, replication queue.
	CheckersSignal = "signal"
	// CheckersHandler is the in-place error handler: it reports the error the
	// workload's own last store.Set returned.
	CheckersHandler = "handler"
	// CheckersHeartbeat is a crash failure detector fed by a live goroutine.
	CheckersHeartbeat = "heartbeat"
)

// ablationSources lists the checker sources each ablation substrate accepts.
var ablationSources = map[string][]string{
	"kvs": {CheckersReduced, CheckersProbe, CheckersSignal, CheckersHandler, CheckersHeartbeat},
	"dfs": {CheckersReduced},
}

// ablationPoint is one fault point and the reduced-suite checker guarding it.
type ablationPoint struct {
	point   string
	reduced string
}

// ablationFaultPoints attributes every point of table to the checker expected
// to detect it under source: its reduced-suite checker, or a detector arm's
// one checker. Ablation schedules arm Error faults only: hangs exercise the
// liveness machinery, which every suite shares, and would blur the coverage
// comparison.
func ablationFaultPoints(table []ablationPoint, source string) []FaultPoint {
	points := make([]FaultPoint, 0, len(table))
	for _, ap := range table {
		checker := source
		if source == CheckersReduced {
			checker = ap.reduced
		}
		points = append(points, FaultPoint{
			Point:   ap.point,
			Checker: checker,
			Kinds:   []faultinject.Kind{faultinject.Error},
		})
	}
	return points
}

func validAblationSource(substrate, source string) error {
	valid := ablationSources[substrate]
	if slices.Contains(valid, source) {
		return nil
	}
	return fmt.Errorf("campaign: unknown %s checker source %q (want %s)",
		substrate, source, strings.Join(valid, "|"))
}

// kvsAblationPoints is the kvs attribution table.
var kvsAblationPoints = []ablationPoint{
	{point: kvs.FaultFlushWrite, reduced: "kvs.flusher"},
	{point: kvs.FaultWALAppend, reduced: "kvs.wal"},
	{point: kvs.FaultIndexerPut, reduced: "kvs.indexer"},
	{point: kvs.FaultCompactMerge, reduced: "kvs.compaction"},
	{point: kvs.FaultIndexerGet, reduced: "kvs.indexer"},
	{point: kvs.FaultSSTableRead, reduced: "kvs.partition"},
}

// NewKVSAblationTarget opens a kvs store under dir and wires the reduced
// suite or the selected detector. Identical substrate and workload to
// NewKVSTarget, plus one flush before the run so the flusher's hook-fed
// context is live; no recovery manager, so the verdict isolates detection.
func NewKVSAblationTarget(dir, source string, opts ...wdruntime.Option) (*Target, error) {
	if err := validAblationSource("kvs", source); err != nil {
		return nil, err
	}
	factory := watchdog.NewFactory()
	store, err := kvs.Open(kvs.Config{
		Dir:                 dir,
		FlushThresholdBytes: 1 << 30, // flush only on demand
		WatchdogFactory:     factory,
	})
	if err != nil {
		return nil, err
	}
	if err := store.Set([]byte("ablation-seed"), []byte("flushed")); err != nil {
		store.Close()
		return nil, err
	}
	store.FlushAll(true)

	base := []wdruntime.Option{
		wdruntime.WithFactory(factory),
		wdruntime.WithInterval(50 * time.Millisecond),
		wdruntime.WithTimeout(250 * time.Millisecond),
	}
	rt, err := wdruntime.New(append(base, opts...)...)
	if err != nil {
		store.Close()
		return nil, err
	}
	d := rt.Driver()

	// lastSet is the result of the workload's latest store.Set: what an
	// error handler at that call site sees.
	var lastSet atomic.Pointer[error]
	closers := []func() error{rt.Close, store.Close}
	if source == CheckersReduced {
		shadow, err := wdio.NewFS(kvs.ShadowDirFor(dir), 0)
		if err != nil {
			rt.Close()
			store.Close()
			return nil, err
		}
		store.InstallWatchdog(d, shadow)
	} else {
		closeArm, err := registerDetectorArm(d, source, store, &lastSet)
		if err != nil {
			rt.Close()
			store.Close()
			return nil, err
		}
		closers = append([]func() error{closeArm}, closers...)
	}

	payload := []byte("ablation-payload")
	var inflight atomic.Bool
	return &Target{
		Name:     "kvs-ablation-" + source,
		Runtime:  rt,
		Injector: store.Injector(),
		Points:   ablationFaultPoints(kvsAblationPoints, source),
		Step: func(tick int) {
			// Same abandoned-write workload as NewKVSTarget: it keeps the
			// hook-fed contexts fresh for the reduced suite and hangs
			// nothing. Its result is what the handler arm reports.
			if !inflight.CompareAndSwap(false, true) {
				return
			}
			key := []byte{byte(tick % 251)}
			go func() {
				defer inflight.Store(false)
				err := store.Set(key, payload)
				lastSet.Store(&err)
			}()
		},
		Close: func() error {
			drainInflight(&inflight)
			var errs []error
			for _, c := range closers {
				errs = append(errs, c())
			}
			return errors.Join(errs...)
		},
	}, nil
}

// registerDetectorArm registers the named detector arm's one checker on d and
// returns what releases its resources.
func registerDetectorArm(d *watchdog.Driver, source string, store *kvs.Store, lastSet *atomic.Pointer[error]) (func() error, error) {
	ready := watchdog.WithContext(readyContext())
	switch source {
	case CheckersProbe:
		srv, err := kvs.Serve("127.0.0.1:0", store)
		if err != nil {
			return nil, err
		}
		d.Register(checkers.Probe(CheckersProbe, func() error {
			c, err := kvs.Dial(srv.Addr(), time.Second)
			if err != nil {
				return err
			}
			defer c.Close()
			if err := c.Set("__probe__", "ping"); err != nil {
				return err
			}
			v, err := c.Get("__probe__")
			if err != nil {
				return err
			}
			if v != "ping" {
				return fmt.Errorf("read back %q", v)
			}
			return nil
		}), ready)
		return srv.Close, nil
	case CheckersSignal:
		m := store.Metrics()
		indicators := []watchdog.Checker{
			checkers.CounterStalled("flush-progress", "flushes", m.Counter("kvs.flushes")),
			checkers.CounterStalled("mutation-progress", "mutations", m.Counter("kvs.mutations")),
			checkers.CounterRising("error-rate", "errors", m.Counter("kvs.errors")),
			checkers.GaugeAbove("repl-queue", "repl-queue", m.Gauge("kvs.repl.queue"), 512),
		}
		// One checker samples every indicator each run; its report carries
		// the first violated indicator's signal:<indicator> site.
		d.Register(watchdog.NewChecker(CheckersSignal, func(ctx *watchdog.Context) error {
			var errs []error
			for _, c := range indicators {
				errs = append(errs, c.Check(ctx))
			}
			return errors.Join(errs...)
		}), ready)
		return func() error { return nil }, nil
	case CheckersHandler:
		d.Register(watchdog.NewChecker(CheckersHandler, func(*watchdog.Context) error {
			if err := lastSet.Load(); err != nil {
				return *err
			}
			return nil
		}), ready)
		return func() error { return nil }, nil
	case CheckersHeartbeat:
		timeout := d.DefaultTimeout()
		hb := detect.NewHeartbeat(d.Clock(), timeout)
		hb.Beat() // a feeder that never ran is suspected too

		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(timeout / 10)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					hb.Beat()
				}
			}
		}()
		d.Register(watchdog.NewChecker(CheckersHeartbeat, func(*watchdog.Context) error {
			if hb.Suspect() {
				return fmt.Errorf("no heartbeat within %v", timeout)
			}
			return nil
		}), ready)
		return func() error {
			close(stop)
			<-done
			return nil
		}, nil
	}
	return nil, fmt.Errorf("campaign: no detector arm %q", source)
}

// dfsAblationPoints: the reduced dfs.disk checker probes both the write and
// read point of every volume.
var dfsAblationPoints = []ablationPoint{
	{point: dfs.FaultVolumeWritePrefix + "0", reduced: "dfs.disk"},
	{point: dfs.FaultVolumeWritePrefix + "1", reduced: "dfs.disk"},
	{point: dfs.FaultVolumeReadPrefix + "0", reduced: "dfs.disk"},
	{point: dfs.FaultVolumeReadPrefix + "1", reduced: "dfs.disk"},
}

// NewDFSAblationTarget builds a two-volume DataNode with the reduced suite.
func NewDFSAblationTarget(dir, source string, opts ...wdruntime.Option) (*Target, error) {
	if err := validAblationSource("dfs", source); err != nil {
		return nil, err
	}
	factory := watchdog.NewFactory()
	dn, err := dfs.New(dfs.Config{
		VolumeDirs:      []string{filepath.Join(dir, "vol0"), filepath.Join(dir, "vol1")},
		WatchdogFactory: factory,
	})
	if err != nil {
		return nil, err
	}

	base := []wdruntime.Option{
		wdruntime.WithFactory(factory),
		wdruntime.WithInterval(50 * time.Millisecond),
		wdruntime.WithTimeout(250 * time.Millisecond),
	}
	rt, err := wdruntime.New(append(base, opts...)...)
	if err != nil {
		return nil, err
	}
	d := rt.Driver()
	dn.InstallWatchdog(d)

	payload := []byte("ablation block payload")
	var inflight atomic.Bool
	return &Target{
		Name:     "dfs-ablation-" + source,
		Runtime:  rt,
		Injector: dn.Injector(),
		Points:   ablationFaultPoints(dfsAblationPoints, source),
		Step: func(tick int) {
			if tick%4 != 0 || !inflight.CompareAndSwap(false, true) {
				return
			}
			go func() {
				defer inflight.Store(false)
				_, _ = dn.WriteBlock(payload)
			}()
		},
		Close: func() error {
			drainInflight(&inflight)
			return rt.Close()
		},
	}, nil
}

// NewAblationTarget builds the named ablation substrate ("kvs" or "dfs")
// under the given checker source.
func NewAblationTarget(name, dir, source string, opts ...wdruntime.Option) (*Target, error) {
	switch name {
	case "kvs":
		return NewKVSAblationTarget(filepath.Join(dir, "kvs"), source, opts...)
	case "dfs":
		return NewDFSAblationTarget(filepath.Join(dir, "dfs"), source, opts...)
	default:
		return nil, fmt.Errorf("campaign: no ablation substrate %q (want kvs or dfs)", name)
	}
}
