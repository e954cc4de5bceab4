// Package campaign implements a randomized fault-injection campaign runner
// for the watchdog stack: it drives a target system (synthetic, kvs, or dfs)
// through scripted or seeded fault schedules — storms, flapping faults,
// correlated hangs — and scores how the self-hardening watchdog loop behaved:
// detection latency, false positives in fault-free phases, breaker trips,
// damped alarms, hang-budget skips, and recovery outcomes.
//
// A campaign exercises the whole loop (checker → breaker → alarm gate →
// recovery → health reset) under adversarial timing and emits a
// machine-readable Verdict for CI. The same runner scores the paper's detector
// comparison (Tables 1–2): the kvs ablation target swaps the checker suite for
// one detector at a time under one fault schedule (see ablation.go).
//
// Time is tick-stepped: every tick the runner arms/disarms scheduled faults,
// runs the target's workload step, executes every checker once via
// Driver.CheckAll, and sleeps one interval on the driver's clock. On a
// virtual clock the whole campaign is deterministic.
package campaign

import (
	"fmt"
	"sync"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// Config parameterizes one campaign run.
type Config struct {
	// Seed drives schedule generation (and nothing else); ignored when
	// Script is set.
	Seed int64
	// Interval is the per-tick sleep on the target's clock (default 100ms).
	Interval time.Duration
	// WarmupTicks (default 10) run fault-free before the storm; any abnormal
	// report during warmup is a false positive.
	WarmupTicks int
	// StormTicks (default 40) bound the phase in which faults are armed.
	StormTicks int
	// CooldownTicks (default 20) run after the storm with no new faults.
	CooldownTicks int
	// GraceTicks (default 5) are the leading cooldown ticks during which
	// unmatched abnormal reports count as collateral, not false positives —
	// residual effects (reaping, half-open probes) are still draining.
	GraceTicks int
	// MinDetectionRate is the pass threshold on detected/injected (default
	// 0.75). Breaker-suppressed re-checks can legitimately cost detections,
	// so 1.0 is only reasonable for hand-written scripts.
	MinDetectionRate float64
	// Script, when non-nil, replaces the generated schedule with an explicit
	// fault list; deterministic acceptance tests use it.
	Script []ScriptedFault
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.WarmupTicks <= 0 {
		c.WarmupTicks = 10
	}
	if c.StormTicks <= 0 {
		c.StormTicks = 40
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = 20
	}
	if c.GraceTicks <= 0 {
		c.GraceTicks = 5
	}
	if c.MinDetectionRate <= 0 {
		c.MinDetectionRate = 0.75
	}
	return c
}

// liveFault tracks one armed scripted fault until its checker goes healthy
// again after disarming.
type liveFault struct {
	ev      *FaultOutcome
	until   int // first tick at which the fault is disarmed
	expired bool
	// standing is set while the checker is still in an alarm that began
	// before the fault was armed: that alarm is not a detection of it.
	standing bool
}

// runner is the per-run state; reports arrive synchronously on the CheckAll
// goroutine but recovery retries and reapers run concurrently, so the mutable
// scoring state is locked.
type runner struct {
	cfg Config
	tgt *Target
	d   *watchdog.Driver
	clk clock.Clock

	mu         sync.Mutex
	tick       int
	active     map[string]*liveFault // by fault point
	current    map[string]*liveFault // by checker name
	alarmed    map[string]bool       // checkers whose latest report was abnormal
	outcomes   []*FaultOutcome
	fp         int
	fpDetails  []string
	collateral int
	faultFree  int
	leakedMax  int
	alarms     int64
}

const (
	phaseWarmup = iota
	phaseStorm
	phaseCooldown
)

func (r *runner) phaseAt(tick int) int {
	switch {
	case tick < r.cfg.WarmupTicks:
		return phaseWarmup
	case tick < r.cfg.WarmupTicks+r.cfg.StormTicks:
		return phaseStorm
	default:
		return phaseCooldown
	}
}

func (r *runner) inGrace(tick int) bool {
	start := r.cfg.WarmupTicks + r.cfg.StormTicks
	return tick >= start && tick < start+r.cfg.GraceTicks
}

// Run executes one campaign against tgt and scores it. The target's driver
// must not be Start()ed: the runner steps it synchronously with CheckAll so
// one tick equals one execution of every checker. A runtime hang budget
// (wdruntime.WithHangBudget) adds a pass criterion: the campaign-wide maximum
// of leaked hung checker goroutines must stay within it.
func Run(tgt *Target, cfg Config) (*Verdict, error) {
	cfg = cfg.withDefaults()
	checkerFor := make(map[string]FaultPoint, len(tgt.Points))
	for _, p := range tgt.Points {
		checkerFor[p.Point] = p
	}
	script := cfg.Script
	if script == nil {
		script = Generate(cfg.Seed, tgt.Points, cfg)
	}
	byTick := make(map[int][]ScriptedFault)
	for _, sf := range script {
		if _, ok := checkerFor[sf.Point]; !ok {
			return nil, fmt.Errorf("campaign: scripted fault references unknown point %q", sf.Point)
		}
		if sf.DurationTicks <= 0 {
			return nil, fmt.Errorf("campaign: fault at %q has non-positive duration", sf.Point)
		}
		byTick[sf.Tick] = append(byTick[sf.Tick], sf)
	}

	d := tgt.Runtime.Driver()
	r := &runner{
		cfg:     cfg,
		tgt:     tgt,
		d:       d,
		clk:     d.Clock(),
		active:  make(map[string]*liveFault),
		current: make(map[string]*liveFault),
		alarmed: make(map[string]bool),
	}
	virtual, _ := r.clk.(*clock.Virtual)
	d.OnReport(r.observeReport)
	d.OnAlarm(func(watchdog.Alarm) {
		r.mu.Lock()
		r.alarms++
		r.mu.Unlock()
	})

	total := cfg.WarmupTicks + cfg.StormTicks + cfg.CooldownTicks
	for tick := 0; tick < total; tick++ {
		r.mu.Lock()
		r.tick = tick
		// Disarm faults whose window closed; their checkers stay matched
		// until they report healthy again, so residual stuck re-reports are
		// attributed, not miscounted as false positives.
		for point, lf := range r.active {
			if tick >= lf.until {
				tgt.Injector.Disarm(point)
				lf.expired = true
				delete(r.active, point)
			}
		}
		for _, sf := range byTick[tick] {
			fp := checkerFor[sf.Point]
			ev := &FaultOutcome{
				Point:         sf.Point,
				Checker:       fp.Checker,
				Kind:          sf.Fault.Kind.String(),
				ArmTick:       tick,
				DurationTicks: sf.DurationTicks,
			}
			r.outcomes = append(r.outcomes, ev)
			// An alarm already running when the fault is armed does not
			// detect it, unless it is the residue of an earlier fault on
			// the same checker, which stays attributed as before.
			standing := r.alarmed[fp.Checker]
			if prev, ok := r.current[fp.Checker]; ok {
				standing = prev.standing
			}
			lf := &liveFault{ev: ev, until: tick + sf.DurationTicks, standing: standing}
			r.active[sf.Point] = lf
			r.current[fp.Checker] = lf
			ev.armedAt = r.clk.Now()
			tgt.Injector.Arm(sf.Point, sf.Fault)
		}
		if len(r.active) == 0 && len(r.current) == 0 {
			r.faultFree++
		}
		r.mu.Unlock()

		// Let reapers finish claiming hang victims released by the disarms
		// above, so whether a checker is still in flight at this tick does
		// not depend on goroutine scheduling.
		for i := 0; i < 1000 && d.LeakedHung() > int(tgt.Injector.Hanging()); i++ {
			time.Sleep(100 * time.Microsecond)
		}

		if tgt.Step != nil {
			tgt.Step(tick)
		}
		if virtual != nil {
			r.checkAllVirtual(virtual)
		} else {
			d.CheckAll()
		}
		if leaked := d.LeakedHung(); leaked > 0 {
			r.mu.Lock()
			if leaked > r.leakedMax {
				r.leakedMax = leaked
			}
			r.mu.Unlock()
		}
		if virtual != nil {
			// On a virtual clock nobody else advances time: the tick sleep is
			// a plain advance, which also fires due recovery-retry backoffs.
			virtual.Advance(cfg.Interval)
		} else {
			r.clk.Sleep(cfg.Interval)
		}
	}

	// Release anything still hung and let in-flight recovery cycles finish
	// so the verdict sees final outcomes.
	tgt.Injector.Clear()
	if tgt.Recovery != nil {
		if virtual != nil {
			drained := make(chan struct{})
			go func() {
				tgt.Recovery.Wait()
				close(drained)
			}()
			for done := false; !done; {
				select {
				case <-drained:
					done = true
				case <-time.After(2 * time.Millisecond):
					virtual.Advance(cfg.Interval)
				}
			}
		} else {
			tgt.Recovery.Wait()
		}
	}
	return r.verdict(total), nil
}

// virtualExecGrace is how long (real time) checkAllVirtual waits for one
// checker execution to complete on its own before concluding it is blocked on
// virtual time. Checker bodies on virtual-clock targets are pure computation,
// so anything still running after this long is waiting on the clock.
const virtualExecGrace = 100 * time.Millisecond

// checkAllVirtual steps every checker once on a virtual clock. A healthy
// execution completes without any time passing; an execution that blocks (a
// hang fault riding toward its liveness timeout) is detected by its lack of
// real-time progress, and the clock is advanced by exactly the checker's
// timeout so the stuck report lands at start+timeout on every run. Delay
// faults are not supported on virtual-clock targets: a delay shorter than the
// timeout would wake together with the timeout timer and the classification
// would depend on goroutine scheduling.
func (r *runner) checkAllVirtual(v *clock.Virtual) {
	for _, st := range r.d.State() {
		done := make(chan struct{})
		name := st.Name
		go func() {
			defer close(done)
			r.d.CheckNow(name)
		}()
		blocked := true
		deadline := time.Now().Add(virtualExecGrace)
		for time.Now().Before(deadline) {
			select {
			case <-done:
				blocked = false
			default:
				time.Sleep(200 * time.Microsecond)
				continue
			}
			break
		}
		if !blocked {
			continue
		}
		// The execution is parked on the clock; its timeout timer is long
		// since registered. Fire it exactly at start+timeout.
		v.BlockUntil(1)
		v.Advance(st.Timeout)
		<-done
	}
}

// observeReport scores every report against the live fault table. It runs
// synchronously on the CheckAll goroutine (driver listeners are synchronous),
// interleaved with nothing but the recovery retry goroutines.
func (r *runner) observeReport(rep watchdog.Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !rep.Status.Abnormal() {
		// A healthy report ends any standing alarm and retires the matched
		// fault once it is disarmed; skipped and context-pending reports are
		// neutral either way.
		if rep.Status == watchdog.StatusHealthy {
			delete(r.alarmed, rep.Checker)
			if lf, ok := r.current[rep.Checker]; ok {
				lf.standing = false
				if lf.expired {
					delete(r.current, rep.Checker)
				}
			}
		}
		return
	}
	r.alarmed[rep.Checker] = true
	if lf, ok := r.current[rep.Checker]; ok {
		// Only an alarm that starts while the fault is live detects it.
		if !lf.ev.Detected && !lf.standing {
			lf.ev.Detected = true
			lf.ev.DetectTick = r.tick
			lf.ev.DetectLatencyNS = int64(rep.Time.Sub(lf.ev.armedAt))
			if !rep.Site.IsZero() {
				lf.ev.Site = rep.Site.String()
			}
		}
		return
	}
	// Abnormal report with no live fault on that checker.
	if r.phaseAt(r.tick) == phaseStorm || r.inGrace(r.tick) {
		// Cross-checker interference during the storm (or its grace tail) is
		// collateral, not a verdict failure: faults on shared substrate
		// (volumes, WAL directories) legitimately trip sibling checkers.
		r.collateral++
		return
	}
	r.fp++
	if len(r.fpDetails) < 16 {
		r.fpDetails = append(r.fpDetails,
			fmt.Sprintf("tick %d: %s reported %s: %v", r.tick, rep.Checker, rep.Status, rep.Err))
	}
}
