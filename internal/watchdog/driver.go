package watchdog

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gowatchdog/internal/clock"
)

// PanicError wraps a panic value recovered from a checker execution.
type PanicError struct{ Value any }

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("checker panicked: %v", e.Value) }

// Driver manages checker scheduling and execution (§3.1). Each registered
// checker runs on its own cadence in its own goroutine; the driver catches
// the three failure signatures — error, crash, hang — classifies them,
// maintains a status ledger, and raises alarms once abnormal results cross a
// checker's threshold.
//
// The driver never blocks on a checker: a checker that hangs is abandoned
// past its timeout (the goroutine is reaped when it eventually returns) and
// the hang itself is reported as a liveness violation pinpointing the
// vulnerable operation that was executing.
type Driver struct {
	clk             clock.Clock
	factory         *Factory
	defaultInterval time.Duration
	defaultTimeout  time.Duration
	breakerCfg      BreakerConfig // every checker's breaker; zero = disabled
	hangBudget      int           // max concurrently-leaked hung goroutines; 0 = unlimited
	dampWindow      time.Duration // alarm suppression window; 0 = no damping
	jitterSeed      int64

	mu           sync.Mutex
	checkers     map[string]*registered
	order        []string // registration order, for deterministic iteration
	listeners    []func(Report)
	alarmFns     []func(Alarm)
	obs          Observer
	running      bool
	stop         chan struct{}
	wg           sync.WaitGroup
	rng          *rand.Rand // breaker backoff jitter; guarded by mu
	gate         *alarmGate // non-nil when dampWindow > 0
	leakedHung   int        // hung checker goroutines currently awaiting reaping
	breakerSkips int64      // executions skipped because a breaker was open
	budgetSkips  int64      // executions skipped because the hang budget was exhausted
	suppressed   int64      // alarms swallowed by the damping gate
}

// registered couples a checker with its context and policy. Mutable fields
// are guarded by the driver mutex.
type registered struct {
	c         Checker
	ctx       *Context
	interval  time.Duration
	timeout   time.Duration
	threshold int
	validator func(Report) bool

	inFlight    bool
	paused      bool
	consecutive int
	alarmed     bool
	runs        int64
	abnormal    int64
	latest      Report
	hasLatest   bool

	brk         BreakerConfig // resolved breaker policy; disabled when Threshold <= 0
	brkState    BreakerState
	brkFailures int       // consecutive breaker-countable failures while closed
	brkStreak   int       // consecutive trips without an intervening close
	brkTrips    int64     // lifetime trip count
	brkNext     time.Time // next probe-eligible time while open
	flaps       int64     // alarms suppressed by damping for this checker
}

// Option configures a Driver.
type Option func(*Driver)

// WithClock sets the clock used for scheduling and timeouts.
func WithClock(c clock.Clock) Option { return func(d *Driver) { d.clk = c } }

// WithInterval sets the default check interval (default 1s).
func WithInterval(iv time.Duration) Option { return func(d *Driver) { d.defaultInterval = iv } }

// WithTimeout sets the default liveness timeout (default 6s, the paper's
// case-study configuration: 1s interval + 6s timeout ≈ 7s detection).
func WithTimeout(to time.Duration) Option { return func(d *Driver) { d.defaultTimeout = to } }

// WithFactory shares an existing context factory (e.g. one the generated
// hooks already write into).
func WithFactory(f *Factory) Option { return func(d *Driver) { d.factory = f } }

// WithBreaker sets the circuit breaker every checker runs under. The breaker
// is off by default: tests and experiments that deliberately crash-loop
// checkers rely on every execution running.
func WithBreaker(cfg BreakerConfig) Option { return func(d *Driver) { d.breakerCfg = cfg } }

// WithHangBudget caps how many hung checker goroutines the driver will leak
// concurrently. At the cap, executions that would start a new goroutine are
// skipped with a budget-exhausted StatusSkipped report until a hung checker
// returns and is reaped. Zero (the default) means unlimited.
func WithHangBudget(n int) Option { return func(d *Driver) { d.hangBudget = n } }

// WithAlarmDamping suppresses duplicate (checker, site, status) alarms inside
// window; the next escaped alarm carries the suppressed count in Flaps. Zero
// (the default) disables damping.
func WithAlarmDamping(window time.Duration) Option {
	return func(d *Driver) { d.dampWindow = window }
}

// WithJitterSeed seeds the breaker's backoff jitter for reproducible runs
// (default seed 1, so unseeded drivers are deterministic too).
func WithJitterSeed(seed int64) Option { return func(d *Driver) { d.jitterSeed = seed } }

// Observer receives execution telemetry from the driver: one callback per
// checker execution and one per raised alarm. It exists so an observability
// layer (internal/wdobs) can count runs, classify status transitions, and
// histogram latencies without re-deriving driver state from listeners.
//
// Callbacks run synchronously on the checker's scheduling goroutine, outside
// the driver lock, and must not block. A nil observer costs a single pointer
// check per execution, keeping the paper's §3.2 "watchdogs must stay cheap"
// property when observability is disabled.
type Observer interface {
	// ObserveReport is invoked after every execution with the resulting
	// report, the status of the previous report, and whether this is the
	// checker's first report (in which case prev is meaningless).
	ObserveReport(rep Report, prev Status, first bool)
	// ObserveAlarm is invoked when an abnormal streak crosses a checker's
	// threshold, after any validator has run.
	ObserveAlarm(a Alarm)
}

// New returns a Driver with the given options applied.
func New(opts ...Option) *Driver {
	d := &Driver{
		clk:             clock.Real(),
		defaultInterval: time.Second,
		defaultTimeout:  6 * time.Second,
		jitterSeed:      1,
		checkers:        make(map[string]*registered),
		stop:            make(chan struct{}),
	}
	for _, o := range opts {
		o(d)
	}
	if d.factory == nil {
		d.factory = NewFactory()
	}
	d.rng = rand.New(rand.NewSource(d.jitterSeed))
	if d.dampWindow > 0 {
		d.gate = newAlarmGate(d.clk, d.dampWindow)
	}
	return d
}

// Factory returns the driver's context factory; hooks in the main program
// write through it.
func (d *Driver) Factory() *Factory { return d.factory }

// Clock returns the driver's clock, shared with helper utilities.
func (d *Driver) Clock() clock.Clock { return d.clk }

// DefaultInterval returns the driver's default check interval, so checker
// installers can derive slower cadences for heavyweight checkers.
func (d *Driver) DefaultInterval() time.Duration { return d.defaultInterval }

// DefaultTimeout returns the driver's default liveness timeout.
func (d *Driver) DefaultTimeout() time.Duration { return d.defaultTimeout }

// CheckerOption configures one registered checker.
type CheckerOption func(*registered)

// Every overrides the check interval for this checker.
func Every(iv time.Duration) CheckerOption { return func(r *registered) { r.interval = iv } }

// Timeout overrides the liveness timeout for this checker.
func Timeout(to time.Duration) CheckerOption { return func(r *registered) { r.timeout = to } }

// Threshold sets how many consecutive abnormal reports raise an alarm
// (default 1).
func Threshold(n int) CheckerOption { return func(r *registered) { r.threshold = n } }

// ValidateWith installs a validator consulted when an alarm fires; typically
// a probe checker assessing end-to-end impact (§5.1).
func ValidateWith(fn func(Report) bool) CheckerOption {
	return func(r *registered) { r.validator = fn }
}

// WithContext binds the checker to a specific context instead of the
// factory-managed context named after the checker.
func WithContext(ctx *Context) CheckerOption { return func(r *registered) { r.ctx = ctx } }

// Register adds a checker. It panics if the driver is running or the name is
// already taken — checker sets are assembled at startup, mirroring the
// generated watchdogs that register every checker before the driver starts.
func (d *Driver) Register(c Checker, opts ...CheckerOption) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		panic("watchdog: Register after Start")
	}
	name := c.Name()
	if _, dup := d.checkers[name]; dup {
		panic("watchdog: duplicate checker " + name)
	}
	r := &registered{
		c:         c,
		interval:  d.defaultInterval,
		timeout:   d.defaultTimeout,
		threshold: 1,
		brk:       d.breakerCfg,
	}
	for _, o := range opts {
		o(r)
	}
	if r.ctx == nil {
		r.ctx = d.factory.Context(name)
	}
	r.brk = r.brk.withDefaults(r.interval)
	d.checkers[name] = r
	d.order = append(d.order, name)
}

// OnReport subscribes fn to every checker report. Must be called before
// Start. fn runs on the checker's scheduling goroutine and must not block.
func (d *Driver) OnReport(fn func(Report)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.listeners = append(d.listeners, fn)
}

// OnAlarm subscribes fn to alarms. Must be called before Start.
func (d *Driver) OnAlarm(fn func(Alarm)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.alarmFns = append(d.alarmFns, fn)
}

// SetObserver installs the execution observer. It panics if the driver is
// running: like Register, observability is wired at startup so executions
// are never half-observed.
func (d *Driver) SetObserver(o Observer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		panic("watchdog: SetObserver after Start")
	}
	d.obs = o
}

// Start launches one scheduling goroutine per checker.
func (d *Driver) Start() {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return
	}
	d.running = true
	d.stop = make(chan struct{})
	names := append([]string(nil), d.order...)
	d.mu.Unlock()
	for _, name := range names {
		d.mu.Lock()
		r := d.checkers[name]
		d.mu.Unlock()
		d.wg.Add(1)
		go d.schedule(r)
	}
}

// Stop halts scheduling and waits for the scheduling goroutines. Checker
// executions that are stuck past their timeout are left to the reaper and do
// not block Stop.
func (d *Driver) Stop() {
	d.mu.Lock()
	if !d.running {
		d.mu.Unlock()
		return
	}
	d.running = false
	close(d.stop)
	d.mu.Unlock()
	d.wg.Wait()
}

func (d *Driver) schedule(r *registered) {
	defer d.wg.Done()
	tick := d.clk.NewTicker(r.interval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C():
			d.executeOnce(r)
		}
	}
}

// CheckNow runs the named checker once, synchronously, applying the same
// classification and alarm policy as scheduled runs. Experiments and tests
// use it to step the watchdog deterministically.
func (d *Driver) CheckNow(name string) (Report, error) {
	d.mu.Lock()
	r, ok := d.checkers[name]
	d.mu.Unlock()
	if !ok {
		return Report{}, fmt.Errorf("watchdog: unknown checker %q", name)
	}
	return d.executeOnce(r), nil
}

// CheckAll runs every registered checker once, in registration order.
func (d *Driver) CheckAll() []Report {
	d.mu.Lock()
	names := append([]string(nil), d.order...)
	d.mu.Unlock()
	out := make([]Report, 0, len(names))
	for _, n := range names {
		rep, err := d.CheckNow(n)
		if err == nil {
			out = append(out, rep)
		}
	}
	return out
}

// Pause suspends the named checker: scheduled and manual executions are
// skipped (reported as context-pending) and its abnormal streak resets.
// Use it around planned maintenance — a deliberately restarted component
// should not page anyone. It returns false for unknown checkers.
func (d *Driver) Pause(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.checkers[name]
	if !ok {
		return false
	}
	r.paused = true
	r.consecutive = 0
	r.alarmed = false
	return true
}

// Resume re-enables a paused checker.
func (d *Driver) Resume(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.checkers[name]
	if !ok {
		return false
	}
	r.paused = false
	return true
}

// Paused reports whether the named checker is paused.
func (d *Driver) Paused(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.checkers[name]
	return ok && r.paused
}

// executeOnce performs one scheduled execution of r and returns the report.
func (d *Driver) executeOnce(r *registered) Report {
	name := r.c.Name()

	d.mu.Lock()
	if r.paused {
		d.mu.Unlock()
		rep := Report{Checker: name, Status: StatusContextPending, Time: d.clk.Now()}
		d.record(r, rep)
		return rep
	}
	if r.brk.enabled() && r.brkState == BreakerOpen {
		now := d.clk.Now()
		if now.Before(r.brkNext) {
			d.breakerSkips++
			next := r.brkNext
			trips := r.brkTrips
			d.mu.Unlock()
			rep := Report{
				Checker: name,
				Status:  StatusSkipped,
				Err: fmt.Errorf("breaker open after %d trip(s); next probe eligible in %v",
					trips, next.Sub(now)),
				Time: now,
			}
			d.record(r, rep)
			return rep
		}
		// Backoff elapsed: admit exactly one probe execution.
		r.brkState = BreakerHalfOpen
	}
	if r.inFlight {
		// The previous execution is still blocked: every tick past the
		// timeout re-confirms the liveness violation.
		site := r.latest.Site
		d.mu.Unlock()
		rep := Report{
			Checker: name,
			Status:  StatusStuck,
			Err:     errors.New("checker still blocked from previous execution"),
			Site:    site,
			Latency: r.timeout,
			Time:    d.clk.Now(),
		}
		d.record(r, rep)
		return rep
	}
	if d.hangBudget > 0 && d.leakedHung >= d.hangBudget {
		// Starting another execution could leak another goroutine; degrade
		// gracefully instead of hanging the watchdog one goroutine at a time.
		d.budgetSkips++
		leaked := d.leakedHung
		budget := d.hangBudget
		d.mu.Unlock()
		rep := Report{
			Checker: name,
			Status:  StatusSkipped,
			Err: fmt.Errorf("hang budget exhausted: %d hung checker goroutine(s) awaiting reaping (budget %d)",
				leaked, budget),
			Time: d.clk.Now(),
		}
		d.record(r, rep)
		return rep
	}
	ctx := r.ctx
	timeout := r.timeout
	d.mu.Unlock()

	if !ctx.Ready() {
		rep := Report{Checker: name, Status: StatusContextPending, Time: d.clk.Now()}
		d.record(r, rep)
		return rep
	}

	start := d.clk.Now()
	resCh := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- &PanicError{Value: p}
			}
		}()
		resCh <- r.c.Check(ctx)
	}()

	timer := d.clk.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-resCh:
		rep := d.classify(name, ctx, err, d.clk.Since(start))
		d.record(r, rep)
		return rep
	case <-timer.C():
		site, _ := ctx.CurrentOp()
		d.mu.Lock()
		r.inFlight = true
		d.leakedHung++
		d.mu.Unlock()
		// Reap the abandoned execution whenever it finally returns.
		go func() {
			<-resCh
			d.mu.Lock()
			r.inFlight = false
			d.leakedHung--
			d.mu.Unlock()
		}()
		rep := Report{
			Checker: name,
			Status:  StatusStuck,
			Err:     fmt.Errorf("checker exceeded %v timeout", timeout),
			Site:    site,
			Payload: ctx.Snapshot(),
			Latency: timeout,
			Time:    d.clk.Now(),
		}
		d.record(r, rep)
		return rep
	}
}

// classify turns a checker return value into a Report.
func (d *Driver) classify(name string, ctx *Context, err error, latency time.Duration) Report {
	rep := Report{Checker: name, Latency: latency, Time: d.clk.Now()}
	if err == nil {
		rep.Status = StatusHealthy
		return rep
	}
	rep.Err = err
	rep.Payload = ctx.Snapshot()
	var oe *OpError
	if errors.As(err, &oe) {
		rep.Site = oe.Site
	}
	var pe *PanicError
	var se *SlowError
	switch {
	case errors.As(err, &pe):
		rep.Status = StatusCrashed
	case errors.As(err, &se):
		rep.Status = StatusSlow
		rep.Site = se.Site
	default:
		rep.Status = StatusError
	}
	return rep
}

// record updates the ledger, notifies listeners, and applies alarm policy.
func (d *Driver) record(r *registered, rep Report) {
	d.mu.Lock()
	prev, first := r.latest.Status, !r.hasLatest
	r.latest = rep
	r.hasLatest = true
	r.runs++
	var alarm *Alarm
	switch {
	case rep.Status == StatusContextPending || rep.Status == StatusSkipped:
		// neither healthy nor abnormal; leave the streak untouched
	case rep.Status.Abnormal():
		r.abnormal++
		r.consecutive++
		if r.consecutive >= r.threshold && !r.alarmed {
			r.alarmed = true
			alarm = &Alarm{Report: rep, Consecutive: r.consecutive}
		}
	default:
		r.consecutive = 0
		r.alarmed = false
	}
	if r.brk.enabled() {
		switch rep.Status {
		case StatusError, StatusStuck, StatusCrashed:
			if r.brkState == BreakerHalfOpen {
				// Failed probe: reopen with a deeper backoff.
				d.tripLocked(r, rep.Time)
			} else if r.brkState == BreakerClosed {
				r.brkFailures++
				if r.brkFailures >= r.brk.Threshold {
					d.tripLocked(r, rep.Time)
				}
			}
		case StatusContextPending, StatusSkipped:
			// No execution happened; no breaker signal either way.
		default:
			// Healthy or slow: the checker completed, so it is serviceable.
			if r.brkState == BreakerHalfOpen {
				r.brkState = BreakerClosed
				r.brkStreak = 0
			}
			r.brkFailures = 0
		}
	}
	listeners := d.listeners
	alarmFns := d.alarmFns
	validator := r.validator
	obs := d.obs
	gate := d.gate
	d.mu.Unlock()

	if obs != nil {
		obs.ObserveReport(rep, prev, first)
	}
	for _, fn := range listeners {
		fn(rep)
	}
	if alarm != nil {
		if validator != nil {
			v := validator(rep)
			alarm.Validated = &v
		}
		if gate != nil {
			damped, ok := gate.Admit(*alarm)
			if !ok {
				// A duplicate inside the suppression window: swallow it so
				// recovery and the journal see the storm as one damped alarm.
				d.mu.Lock()
				r.flaps++
				d.suppressed++
				d.mu.Unlock()
				return
			}
			*alarm = damped
		}
		if obs != nil {
			obs.ObserveAlarm(*alarm)
		}
		for _, fn := range alarmFns {
			fn(*alarm)
		}
	}
}

// tripLocked opens r's breaker: bump the trip counters, compute the capped
// exponential backoff for the current trip streak, add jitter from the
// driver's seeded RNG, and set the next probe-eligible time. Caller holds
// d.mu.
func (d *Driver) tripLocked(r *registered, now time.Time) {
	r.brkTrips++
	r.brkStreak++
	r.brkState = BreakerOpen
	r.brkFailures = 0
	backoff := r.brk.backoff(r.brkStreak)
	if r.brk.JitterFrac > 0 {
		backoff += time.Duration(d.rng.Float64() * r.brk.JitterFrac * float64(backoff))
	}
	r.brkNext = now.Add(backoff)
}

// LeakedHung returns how many hung checker goroutines are currently leaked
// (abandoned past their timeout and awaiting reaping).
func (d *Driver) LeakedHung() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.leakedHung
}

// BreakerSkips returns the total executions skipped because a checker's
// breaker was open.
func (d *Driver) BreakerSkips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.breakerSkips
}

// BudgetSkips returns the total executions skipped because the hang budget
// was exhausted.
func (d *Driver) BudgetSkips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.budgetSkips
}

// BreakerTrips returns the total breaker trips across all checkers.
func (d *Driver) BreakerTrips() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, r := range d.checkers {
		n += r.brkTrips
	}
	return n
}

// InjectAlarm raises a synthesized alarm — one that did not originate from a
// registered checker's report stream, e.g. a fired wdcep temporal rule — and
// routes it through the same alarm policy intrinsic alarms get: the damping
// gate may swallow it (counted in AlarmsSuppressed; returns false), and an
// admitted alarm is delivered to every OnAlarm listener, so recovery, mesh
// gossip tallies, and campaign scoring treat synthesized detections uniformly
// with checker alarms. The execution observer is NOT notified: the injector
// owns the journal representation of its detection (wdruntime journals fired
// rules as KindCEP events) and a KindAlarm double-entry would make one
// detection look like two.
func (d *Driver) InjectAlarm(rep Report, consecutive int) bool {
	alarm := Alarm{Report: rep, Consecutive: consecutive}
	d.mu.Lock()
	gate := d.gate
	alarmFns := d.alarmFns
	d.mu.Unlock()
	if gate != nil {
		damped, ok := gate.Admit(alarm)
		if !ok {
			d.mu.Lock()
			d.suppressed++
			d.mu.Unlock()
			return false
		}
		alarm = damped
	}
	for _, fn := range alarmFns {
		fn(alarm)
	}
	return true
}

// AlarmsSuppressed returns the total alarms swallowed by damping.
func (d *Driver) AlarmsSuppressed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suppressed
}

// Healthy reports whether no checker is currently in an abnormal state.
func (d *Driver) Healthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.checkers {
		if r.hasLatest && r.latest.Status.Abnormal() {
			return false
		}
	}
	return true
}

// Checkers returns the sorted names of all registered checkers.
func (d *Driver) Checkers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]string(nil), d.order...)
	sort.Strings(out)
	return out
}

// CheckerState is a point-in-time view of one registered checker: its
// policy, counters, latest report, and the synchronization state of its
// context. Observability layers build live snapshots from it.
type CheckerState struct {
	// Name is the checker name.
	Name string
	// Paused reports whether the checker is currently paused.
	Paused bool
	// Interval and Timeout are the checker's effective schedule policy.
	Interval time.Duration
	Timeout  time.Duration
	// Threshold is the consecutive-abnormal count that raises an alarm.
	Threshold int
	// Runs is the number of completed executions (including skips),
	// Abnormal the number of abnormal reports, and Consecutive the current
	// abnormal streak.
	Runs        int64
	Abnormal    int64
	Consecutive int
	// Alarmed reports whether the current abnormal streak already alarmed.
	Alarmed bool
	// Latest is the most recent report; valid only when HasLatest is true.
	Latest    Report
	HasLatest bool
	// ContextReady/ContextVersion/ContextSync describe the checker's
	// context; ContextSync is zero when no hook ever fired.
	ContextReady   bool
	ContextVersion uint64
	ContextSync    time.Time
	// BreakerEnabled reports whether a circuit breaker is configured for the
	// checker; the remaining breaker fields are meaningful only when true.
	BreakerEnabled bool
	// Breaker is the current breaker state.
	Breaker BreakerState
	// BreakerTrips counts how many times the breaker has tripped open.
	BreakerTrips int64
	// BreakerNext is the next probe-eligible time while the breaker is open;
	// zero otherwise.
	BreakerNext time.Time
	// Flaps counts alarms suppressed by damping for this checker.
	Flaps int64
}

// State returns a snapshot of every registered checker in registration
// order.
func (d *Driver) State() []CheckerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]CheckerState, 0, len(d.order))
	for _, name := range d.order {
		r := d.checkers[name]
		cs := CheckerState{
			Name:        name,
			Paused:      r.paused,
			Interval:    r.interval,
			Timeout:     r.timeout,
			Threshold:   r.threshold,
			Runs:        r.runs,
			Abnormal:    r.abnormal,
			Consecutive: r.consecutive,
			Alarmed:     r.alarmed,
			Latest:      r.latest,
			HasLatest:   r.hasLatest,
			Flaps:       r.flaps,
		}
		if r.brk.enabled() {
			cs.BreakerEnabled = true
			cs.Breaker = r.brkState
			cs.BreakerTrips = r.brkTrips
			if r.brkState == BreakerOpen {
				cs.BreakerNext = r.brkNext
			}
		}
		// Context methods take only the context's own lock; contexts never
		// take the driver lock, so this nesting cannot invert.
		cs.ContextReady = r.ctx.Ready()
		cs.ContextVersion = r.ctx.Version()
		cs.ContextSync, _ = r.ctx.LastSync()
		out = append(out, cs)
	}
	return out
}
