package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/recovery"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdruntime"
)

// FaultPoint maps one injector point to the checker that guards it and the
// fault kinds a generated schedule may arm there.
type FaultPoint struct {
	// Point is the injector fault-point name.
	Point string
	// Checker is the watchdog checker expected to detect faults at Point.
	Checker string
	// Kinds are the manifestations a generated schedule may choose.
	Kinds []faultinject.Kind
}

// Target is one system under campaign: a runtime-composed watchdog stack, the
// injector its fault points live on, and the attribution table between them.
// Every substrate builds its stack through wdruntime — the same layer the
// daemons deploy — so a campaign verdict scores the production wiring, not a
// parallel copy of it.
type Target struct {
	// Name labels the substrate in the verdict ("synth", "kvs", "dfs").
	Name string
	// Runtime is the composed watchdog stack. The runner steps its driver
	// with CheckAll, so the runtime must not be started.
	Runtime *wdruntime.Runtime
	// Injector hosts the fault points.
	Injector *faultinject.Injector
	// Recovery, when set, is consulted for the verdict's recovery outcomes.
	// The runtime wires it to the driver.
	Recovery *recovery.Manager
	// Points is the fault-point attribution table.
	Points []FaultPoint
	// Step, when set, runs the target's foreground workload each tick.
	// Operations that can hang must be abandoned on goroutines, never run
	// inline — the campaign loop must stay live through every fault.
	Step func(tick int)
	// Close releases target resources after the run.
	Close func() error
}

func readyContext() *watchdog.Context {
	ctx := watchdog.NewContext()
	ctx.MarkReady()
	return ctx
}

// Synthetic substrate fault points: three independent "components" whose
// entire vulnerable operation is one injector site each, so campaign scoring
// is exact (one point, one checker, no cross-talk).
const (
	SynthPointAlpha = "synth.alpha.io"
	SynthPointBeta  = "synth.beta.rpc"
	SynthPointGamma = "synth.gamma.apply"
)

// NewSynthTarget builds the synthetic substrate: three checkers that each
// exercise one fault point through watchdog.Op, a transiently-failing repair
// action (fails the first attempt of every cycle, succeeds on retry — the
// shape WithRetry exists for), and an escalation counter. Deterministic on a
// virtual clock; opts are appended after the defaults so callers can layer
// the hardening options (breaker, damping, hang budget) or retune timeouts.
// The synth substrate takes no disk-backed options, so runtime composition
// cannot fail; a bad option set panics rather than forcing an error return on
// every chained call site.
func NewSynthTarget(clk clock.Clock, opts ...wdruntime.Option) *Target {
	if clk == nil {
		clk = clock.Real()
	}
	inj := faultinject.New(clk)

	rec := recovery.New(
		recovery.WithClock(clk),
		recovery.WithRetry(2, 500*time.Millisecond),
		recovery.WithMaxAttempts(3),
		recovery.WithWindow(time.Minute),
		recovery.WithHealthyReset(10*time.Second),
		recovery.WithEscalation(recovery.ActionFunc{
			ActionName: "synth.restart",
			Match:      func(watchdog.Report) bool { return true },
			Fn:         func(watchdog.Report) error { return nil },
		}),
	)
	var tmu sync.Mutex
	failedOnce := make(map[string]bool)
	rec.Register(recovery.ActionFunc{
		ActionName: "synth.reset",
		Match: func(rep watchdog.Report) bool {
			return strings.HasPrefix(rep.Checker, "synth.")
		},
		Fn: func(rep watchdog.Report) error {
			tmu.Lock()
			defer tmu.Unlock()
			if !failedOnce[rep.Checker] {
				failedOnce[rep.Checker] = true
				return errors.New("synth: reset lock busy")
			}
			failedOnce[rep.Checker] = false
			return nil
		},
	})

	base := []wdruntime.Option{
		wdruntime.WithClock(clk),
		wdruntime.WithInterval(time.Second),
		wdruntime.WithTimeout(3 * time.Second),
		wdruntime.WithRecovery(rec),
	}
	rt, err := wdruntime.New(append(base, opts...)...)
	if err != nil {
		panic(fmt.Sprintf("campaign: synth runtime: %v", err))
	}
	d := rt.Driver()

	points := []FaultPoint{
		{Point: SynthPointAlpha, Checker: "synth.alpha",
			Kinds: []faultinject.Kind{faultinject.Error, faultinject.Flap}},
		{Point: SynthPointBeta, Checker: "synth.beta",
			Kinds: []faultinject.Kind{faultinject.Hang, faultinject.Error}},
		{Point: SynthPointGamma, Checker: "synth.gamma",
			Kinds: []faultinject.Kind{faultinject.Error, faultinject.Panic}},
	}
	for _, p := range points {
		site := watchdog.Site{Function: "campaign.synth", Op: p.Point}
		point := p.Point
		d.Register(watchdog.NewChecker(p.Checker, func(ctx *watchdog.Context) error {
			return watchdog.Op(ctx, site, func() error {
				return inj.Fire(point)
			})
		}), watchdog.WithContext(readyContext()))
	}

	return &Target{
		Name:     "synth",
		Runtime:  rt,
		Injector: inj,
		Recovery: rec,
		Points:   points,
		Close:    rt.Close,
	}
}

// NewKVSTarget opens a kvs store under dir and wires its generated checker
// suite. The store runs on the real clock (its flusher and compaction
// goroutines do), so campaigns against it should use real-time intervals.
func NewKVSTarget(dir string, opts ...wdruntime.Option) (*Target, error) {
	factory := watchdog.NewFactory()
	store, err := kvs.Open(kvs.Config{
		Dir:                 dir,
		FlushThresholdBytes: 1 << 30, // flush only on demand
		WatchdogFactory:     factory,
	})
	if err != nil {
		return nil, err
	}
	shadow, err := wdio.NewFS(kvs.ShadowDirFor(dir), 0)
	if err != nil {
		store.Close()
		return nil, err
	}

	rec := recovery.New(
		recovery.WithRetry(2, 50*time.Millisecond),
		recovery.WithMaxAttempts(5),
		recovery.WithWindow(time.Minute),
	)
	rec.Register(recovery.ForChecker("kvs.verify", "kvs.", func(watchdog.Report) error {
		return store.VerifyPartition(0)
	}))

	base := []wdruntime.Option{
		wdruntime.WithFactory(factory),
		wdruntime.WithInterval(50 * time.Millisecond),
		wdruntime.WithTimeout(250 * time.Millisecond),
		wdruntime.WithRecovery(rec),
	}
	rt, err := wdruntime.New(append(base, opts...)...)
	if err != nil {
		store.Close()
		return nil, err
	}
	d := rt.Driver()
	store.InstallWatchdog(d, shadow)

	payload := []byte("campaign-payload")
	var inflight atomic.Bool
	return &Target{
		Name:     "kvs",
		Runtime:  rt,
		Injector: store.Injector(),
		Recovery: rec,
		Points: []FaultPoint{
			{Point: kvs.FaultFlushWrite, Checker: "kvs.flusher",
				Kinds: []faultinject.Kind{faultinject.Error, faultinject.Hang, faultinject.Flap}},
			{Point: kvs.FaultWALAppend, Checker: "kvs.wal",
				Kinds: []faultinject.Kind{faultinject.Error, faultinject.Flap}},
			{Point: kvs.FaultIndexerPut, Checker: "kvs.indexer",
				Kinds: []faultinject.Kind{faultinject.Error}},
			{Point: kvs.FaultCompactMerge, Checker: "kvs.compaction",
				Kinds: []faultinject.Kind{faultinject.Error, faultinject.Hang}},
		},
		Step: func(tick int) {
			// Foreground traffic keeps the hook-fed contexts fresh. Writes
			// can hang on an armed WAL point, so they are abandoned, not
			// awaited. At most one write is in flight so Close can drain
			// deterministically.
			if !inflight.CompareAndSwap(false, true) {
				return
			}
			key := []byte{byte(tick % 251)}
			go func() {
				defer inflight.Store(false)
				_ = store.Set(key, payload)
			}()
		},
		Close: func() error {
			drainInflight(&inflight)
			return errors.Join(rt.Close(), store.Close())
		},
	}, nil
}

// drainInflight waits (bounded) for a target's single abandoned workload op
// to finish; the runner has already cleared the injector, so any hang it was
// stuck in has been released.
func drainInflight(inflight *atomic.Bool) {
	for i := 0; i < 400 && inflight.Load(); i++ {
		time.Sleep(5 * time.Millisecond)
	}
}

// NewDFSTarget builds a two-volume DataNode and wires its disk checkers.
func NewDFSTarget(dir string, opts ...wdruntime.Option) (*Target, error) {
	factory := watchdog.NewFactory()
	dn, err := dfs.New(dfs.Config{
		VolumeDirs:      []string{filepath.Join(dir, "vol0"), filepath.Join(dir, "vol1")},
		WatchdogFactory: factory,
	})
	if err != nil {
		return nil, err
	}

	rec := recovery.New(
		recovery.WithRetry(2, 50*time.Millisecond),
		recovery.WithMaxAttempts(5),
		recovery.WithWindow(time.Minute),
	)
	rec.Register(recovery.ForChecker("dfs.rescan", "dfs.", func(watchdog.Report) error {
		_, err := dn.ScanBlocks()
		return err
	}))

	base := []wdruntime.Option{
		wdruntime.WithFactory(factory),
		wdruntime.WithInterval(50 * time.Millisecond),
		wdruntime.WithTimeout(250 * time.Millisecond),
		wdruntime.WithRecovery(rec),
	}
	rt, err := wdruntime.New(append(base, opts...)...)
	if err != nil {
		return nil, err
	}
	d := rt.Driver()
	dn.InstallWatchdog(d)

	payload := []byte("campaign block payload")
	var inflight atomic.Bool
	return &Target{
		Name:     "dfs",
		Runtime:  rt,
		Injector: dn.Injector(),
		Recovery: rec,
		Points: []FaultPoint{
			{Point: dfs.FaultVolumeWritePrefix + "0", Checker: "dfs.disk",
				Kinds: []faultinject.Kind{faultinject.Error, faultinject.Hang, faultinject.Flap}},
			{Point: dfs.FaultVolumeWritePrefix + "1", Checker: "dfs.disk",
				Kinds: []faultinject.Kind{faultinject.Error, faultinject.Flap}},
		},
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

// NewTarget builds the named disk-backed substrate ("kvs", "dfs") under the
// scratch directory dir.
func NewTarget(name, dir string, opts ...wdruntime.Option) (*Target, error) {
	switch name {
	case "kvs":
		return NewKVSTarget(filepath.Join(dir, "kvs"), opts...)
	case "dfs":
		return NewDFSTarget(filepath.Join(dir, "dfs"), opts...)
	default:
		return nil, fmt.Errorf("campaign: unknown substrate %q", name)
	}
}
