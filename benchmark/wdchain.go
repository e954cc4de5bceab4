package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"gowatchdog/internal/kvs"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdobs"
	"gowatchdog/internal/wdruntime"
)

const (
	synthCheckers = 32
	synthFlappers = 4 // of the 32, alternate healthy and error so the journal and the rule engine see traffic
	flapCycle     = 2 // a flapper fails every flapCycle-th run
	hookRate      = 50_000
)

// chainSystem is the watcher chain on its own: a store that serves no
// clients, its generated checker suite on a shadow filesystem, 32 synthetic
// checkers, and the runtime composing driver, wdobs journal with a JSONL file
// sink, and four temporal rules.
type chainSystem struct {
	dir     string
	store   *kvs.Store
	rt      *wdruntime.Runtime
	factory *watchdog.Factory
	journal string
	startMS float64
}

// chainRules are the four temporal rules. Their thresholds are reachable by
// the flappers' traffic, so rule state is really maintained, and their
// cooldowns keep firings (which journal and raise an alarm) to about one a
// second each.
func chainRules() []wdcep.Rule {
	return []wdcep.Rule{
		wdcep.Consecutive("synth-streak", 3).OnChecker("synth."),
		wdcep.CountRule("synth-burst", 64, time.Second).OnChecker("synth.").WithCooldown(time.Second),
		wdcep.Distinct("synth-spread", 3, time.Second).OnKinds(wdcep.EventAlarm).WithCooldown(time.Second),
		wdcep.Flap("synth-flap", 16, time.Second).OnChecker("synth.").WithHealthyFor(time.Minute).WithCooldown(time.Second),
	}
}

func bootChain(outDir string) (*chainSystem, error) {
	dir, err := os.MkdirTemp(outDir, "chain-")
	if err != nil {
		return nil, err
	}
	c := &chainSystem{dir: dir, factory: watchdog.NewFactory(), journal: filepath.Join(dir, "journal.jsonl")}
	fail := func(err error) (*chainSystem, error) {
		c.close()
		return nil, err
	}
	data := filepath.Join(dir, "data")
	if c.store, err = kvs.Open(kvs.Config{Dir: data, Sync: kvs.SyncNone, WatchdogFactory: c.factory}); err != nil {
		return fail(err)
	}
	// A little real traffic and one real flush feed every hook-gated checker's
	// context, and give the fsck-style partition checker tables to read.
	for i := 0; i < 1024; i++ {
		if err := c.store.Set([]byte(keyName(i)), []byte(valueFor(i, 1, 256))); err != nil {
			return fail(err)
		}
	}
	c.store.FlushAll(true)
	shadow, err := wdio.NewFS(kvs.ShadowDirFor(data), 0)
	if err != nil {
		return fail(err)
	}
	c.rt, err = wdruntime.New(
		wdruntime.WithFactory(c.factory),
		wdruntime.WithRegistry(c.store.Metrics()),
		// The schedule never ticks: this workload drives CheckAll itself.
		wdruntime.WithInterval(time.Hour),
		wdruntime.WithJournalPath(c.journal),
		wdruntime.WithCEPRules(chainRules()...),
		wdruntime.WithCEPEvalEvery(10*time.Millisecond),
	)
	if err != nil {
		return fail(err)
	}
	d := c.rt.Driver()
	c.store.InstallWatchdog(d, shadow)
	for i := 0; i < synthCheckers; i++ {
		ready := watchdog.NewContext()
		ready.Put("budget", int64(i))
		d.Register(synthChecker(i), watchdog.WithContext(ready))
	}
	t0 := time.Now()
	if err := c.rt.Start(context.Background()); err != nil {
		return fail(err)
	}
	c.startMS = ms(time.Since(t0))
	return c, nil
}

var errSynthFlap = errors.New("synthetic flap")

// synthChecker is a cheap checker: it reads its context and compares. The
// first synthFlappers of them fail every other run.
func synthChecker(i int) watchdog.Checker {
	name := fmt.Sprintf("synth.%02d", i)
	var runs atomic.Int64
	return watchdog.NewChecker(name, func(ctx *watchdog.Context) error {
		n := runs.Add(1)
		if v, ok := ctx.Get("budget"); !ok || v.(int64) != int64(i) {
			return fmt.Errorf("%s: context holds %v", name, v)
		}
		if i < synthFlappers && n%flapCycle == 0 {
			return errSynthFlap
		}
		return nil
	})
}

// stop closes the runtime and the store, leaving the directory. It returns
// the runtime's drain-and-close time in milliseconds.
func (c *chainSystem) stop() (drainCloseMS float64) {
	if c.rt != nil {
		t0 := time.Now()
		_ = c.rt.Close()
		drainCloseMS = ms(time.Since(t0))
		c.rt = nil
	}
	if c.store != nil {
		_ = c.store.Close()
		c.store = nil
	}
	return drainCloseMS
}

func (c *chainSystem) close() {
	c.stop()
	_ = os.RemoveAll(c.dir)
}

// feedHooks issues hook captures at about hookRate a second until stop is
// closed: the same PutAll a store's write path makes, on the wal and indexer
// contexts the mimic checkers read. It returns how many it made.
func (c *chainSystem) feedHooks(stop <-chan struct{}) int64 {
	wal, idx := c.factory.Context("kvs.wal"), c.factory.Context("kvs.indexer")
	record := []byte(valueFor(0, 1, 300))
	key := []byte(keyName(0))
	const perTick = hookRate / 1000
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var n int64
	for {
		select {
		case <-stop:
			return n
		case <-tick.C:
			for i := 0; i < perTick; i += 2 {
				wal.PutAll(map[string]any{"partition": int(n % 4), "wal_path": "wal.log", "record": record})
				idx.PutAll(map[string]any{"partition": int(n % 4), "key": key, "op": 1})
				n += 2
			}
		}
	}
}

func runWDChain(ctx *runCtx) (*result, error) {
	res := newResult("wd_chain")
	sys, setupS, err := setupTimes(ctx.quick,
		func() (*chainSystem, error) { return bootChain(ctx.outDir) },
		func(c *chainSystem) { c.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.e2e["setup_s"] = setupS

	stopHooks := make(chan struct{})
	hooksDone := make(chan int64)
	go func() { hooksDone <- sys.feedHooks(stopHooks) }()

	d := sys.rt.Driver()
	var roundUS, selfUS []float64
	checks := 0
	flapRuns := map[string]int{}
	start := time.Now()
	// Always a whole number of flap cycles, so every block below has the
	// same composition.
	for time.Since(start) < ctx.dur(1) || len(roundUS)%flapCycle != 0 {
		t0 := time.Now()
		reports := d.CheckAll()
		dt := time.Since(t0)
		var inCheckers time.Duration
		for _, rep := range reports {
			res.attempted++
			inCheckers += rep.Latency
			want := watchdog.StatusHealthy
			if rep.Err != nil && errors.Is(rep.Err, errSynthFlap) {
				want = watchdog.StatusError
				flapRuns[rep.Checker]++
			}
			if rep.Status != want {
				res.failf("checker %s reported %s: %v", rep.Checker, rep.Status, rep.Err)
			}
		}
		checks += len(reports)
		roundUS = append(roundUS, us(dt))
		selfUS = append(selfUS, us(dt-inCheckers))
	}
	elapsed := time.Since(start)
	close(stopHooks)
	hooks := <-hooksDone

	rounds := len(roundUS)
	// The flappers must have failed exactly every other round.
	for i := 0; i < synthFlappers; i++ {
		if got := flapRuns[fmt.Sprintf("synth.%02d", i)]; got != rounds/flapCycle {
			res.failf("flapper synth.%02d failed %d of %d rounds, want %d", i, got, rounds, rounds/flapCycle)
		}
	}
	// A failing round journals alarms and a passing one does not, so single
	// rounds come in two sizes and their median would sit on the edge between
	// them. The latency sample is the mean round of one flap cycle.
	cycles := blockMeans(roundUS, flapCycle)
	sort.Float64s(cycles)
	res.e2e["ops_per_s"] = float64(checks) / elapsed.Seconds()
	res.e2e["lat_mean95_us"] = trimmedMean(cycles)
	res.e2e["lat_p90_us"] = percentile(cycles, 90)
	res.layers["client.checks_per_s"] = res.e2e["ops_per_s"]
	res.layers["watchdog.checkall_round_us"] = mean(roundUS)
	res.layers["watchdog.driver_self_us"] = mean(selfUS)
	res.layers["wdcep.ring_dropped"] = float64(sys.rt.CEP().RingDropped())
	res.layers["wdruntime.start_ms"] = sys.startMS
	res.noteTiming("CheckAll round", "us", summarize(roundUS))
	res.notef("%d rounds of %d checkers in %.1f s; %d hook captures (%.0f/s); %d rule firings",
		rounds, len(d.Checkers()), elapsed.Seconds(), hooks, float64(hooks)/elapsed.Seconds(), sys.rt.CEP().Fired())

	if ctx.trace {
		traceChain(sys, res)
	}

	journaled := sys.rt.Obs().Journal().Seq()
	res.layers["wdruntime.drain_close_ms"] = sys.stop()
	// The JSONL sink must hold every event the journal sequenced.
	f, err := os.Open(sys.journal)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := wdobs.ReadJournal(f)
	res.attempted++
	if err != nil || int64(len(events)) < journaled {
		res.failf("journal sink holds %d events, journal sequenced %d (err=%v)", len(events), journaled, err)
	}
	return res, nil
}
