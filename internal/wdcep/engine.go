package wdcep

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/watchdog"
)

// maxSubjects bounds each rule's per-subject state maps (streaks, flap
// trackers). Checker and mesh-node populations are small; the cap only
// exists so a pathological subject-name generator can't grow memory without
// bound. Overflowing subjects are ignored and counted in the snapshot.
const maxSubjects = 1024

// maxWindowedCount bounds count/distinct/flap thresholds so their hit
// buffers (sized a small multiple of the threshold) stay bounded while the
// threshold always remains reachable.
const maxWindowedCount = 4096

// defaultMaxFirings bounds the retained firing log.
const defaultMaxFirings = 256

// Config configures an Engine.
type Config struct {
	// Rules are the temporal rules to evaluate. At least one is required.
	Rules []Rule
	// RingSize is the publish ring capacity (default DefaultRingSize,
	// rounded up to a power of two).
	RingSize int
	// EvalEvery rate-limits Pump: evaluations run at most once per period.
	// Zero evaluates on every Pump call.
	EvalEvery time.Duration
	// MaxFirings bounds the retained firing log (default 256); older
	// firings are dropped and counted.
	MaxFirings int
	// GaugeSource resolves gauge names for rules with a gauge-growth gate
	// (wdruntime passes the app registry). Nil disables gauge gates: rules
	// requiring growth never fire.
	GaugeSource func(name string) (float64, bool)
	// OnFire, when non-nil, is invoked synchronously for every firing, under
	// the engine's evaluation lock. It must not call back into Evaluate,
	// Pump, or Drain; Publish is safe.
	OnFire func(Firing)
}

// Firing is one fired rule instance.
type Firing struct {
	// Rule is the fired rule's name.
	Rule string `json:"rule"`
	// Status is the rule's severity — the status the synthesized alarm
	// carries.
	Status watchdog.Status `json:"status"`
	// Time is the evaluation time the rule fired at.
	Time time.Time `json:"time"`
	// Count is the threshold measurement at fire time (streak length,
	// events or subjects in window, raise count).
	Count int `json:"count"`
	// Checkers lists the contributing subjects, sorted.
	Checkers []string `json:"checkers,omitempty"`
	// First and Last bound the contributing event window: First is the
	// earliest contributing point event — the anchor campaign latency
	// scoring measures detection lag against.
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// Detail is a human-readable summary.
	Detail string `json:"detail,omitempty"`
}

// Snapshot is the engine's counters view, served by wdobs under /watchdog
// and rendered by wdstat.
type Snapshot struct {
	// Rules is the number of loaded rules.
	Rules int `json:"rules"`
	// Published counts events accepted into the ring; Dropped counts
	// events rejected on a full ring; Ingested counts events drained into
	// rule evaluation.
	Published int64 `json:"published_total"`
	Dropped   int64 `json:"dropped_total"`
	Ingested  int64 `json:"ingested_total"`
	// Evaluations counts evaluation passes; Fired counts rule firings.
	Evaluations int64 `json:"evaluations_total"`
	Fired       int64 `json:"fired_total"`
	// RingCap is the publish ring capacity.
	RingCap int `json:"ring_cap"`
	// FiringsDropped counts firings evicted from the bounded firing log;
	// SubjectsCapped counts events ignored because a rule's per-subject
	// state map was full.
	FiringsDropped int64 `json:"firings_dropped_total,omitempty"`
	SubjectsCapped int64 `json:"subjects_capped_total,omitempty"`
	// RuleStats carries per-rule fire counts, in rule order.
	RuleStats []RuleStat `json:"rule_stats,omitempty"`
}

// RuleStat is one rule's counters.
type RuleStat struct {
	Name      string    `json:"name"`
	Kind      RuleKind  `json:"kind"`
	Fired     int64     `json:"fired"`
	LastFired time.Time `json:"last_fired"`
}

// Engine evaluates temporal rules over a published event stream. Publish is
// lock-free and safe from any goroutine; Pump/Evaluate/Drain serialize on an
// internal mutex and are driven by the owner (wdruntime pumps on the
// driver's report cadence).
type Engine struct {
	ring       *ring
	gauge      func(string) (float64, bool)
	onFire     func(Firing)
	evalEvery  time.Duration
	maxFirings int

	published atomic.Int64

	mu             sync.Mutex
	rules          []*ruleState
	batch          []Event
	lastEval       time.Time
	haveEval       bool
	evals          int64
	ingested       int64
	firedTotal     int64
	firings        []Firing
	firingsDropped int64
	subjectsCapped int64
}

// NewEngine compiles the rules and returns a ready engine.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("wdcep: engine needs at least one rule")
	}
	e := &Engine{
		ring:       newRing(cfg.RingSize),
		gauge:      cfg.GaugeSource,
		onFire:     cfg.OnFire,
		evalEvery:  cfg.EvalEvery,
		maxFirings: cfg.MaxFirings,
	}
	if e.maxFirings <= 0 {
		e.maxFirings = defaultMaxFirings
	}
	seen := make(map[string]bool, len(cfg.Rules))
	for _, r := range cfg.Rules {
		c, err := compileRule(r)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("wdcep: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		e.rules = append(e.rules, newRuleState(c))
	}
	e.batch = make([]Event, 0, e.ring.cap())
	return e, nil
}

// Publish offers an event to the engine without blocking. It returns false
// (and the drop is counted) when the ring is full. Safe for concurrent use.
func (e *Engine) Publish(ev Event) bool {
	if !e.ring.publish(ev) {
		return false
	}
	e.published.Add(1)
	return true
}

// Pump runs an evaluation pass at now if one is due (EvalEvery has elapsed
// since the last pass) and the engine is not already evaluating. It is the
// cheap per-report call wdruntime wires onto the driver.
func (e *Engine) Pump(now time.Time) {
	if !e.mu.TryLock() {
		// An evaluation is in flight; it will drain our events too.
		return
	}
	defer e.mu.Unlock()
	if e.haveEval && e.evalEvery > 0 && now.Sub(e.lastEval) < e.evalEvery {
		return
	}
	e.evaluateLocked(now)
}

// Evaluate forces an evaluation pass at now, ignoring the EvalEvery gate.
func (e *Engine) Evaluate(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evaluateLocked(now)
}

// Drain ingests everything still buffered in the ring and runs one final
// evaluation pass — the shutdown call wdruntime makes before flushing the
// journal, so a rule completed by the last pre-shutdown events still fires
// and lands in the journal.
func (e *Engine) Drain(now time.Time) { e.Evaluate(now) }

// evaluateLocked drains the ring into the rules and runs the threshold
// checks. Caller holds e.mu.
func (e *Engine) evaluateLocked(now time.Time) {
	e.lastEval = now
	e.haveEval = true
	e.evals++
	for {
		e.batch = e.ring.drain(e.batch[:0])
		if len(e.batch) == 0 {
			break
		}
		e.ingested += int64(len(e.batch))
		for i := range e.batch {
			ev := &e.batch[i]
			for _, rs := range e.rules {
				rs.ingest(ev, e)
			}
		}
		if len(e.batch) < cap(e.batch) {
			// The ring had fewer events than one full batch: done. A full
			// batch means producers may still be ahead; loop to drain them.
			break
		}
	}
	for _, rs := range e.rules {
		rs.evaluate(now, e)
	}
}

// fire records a firing and notifies the OnFire hook. Caller holds e.mu.
func (e *Engine) fire(f Firing) {
	e.firedTotal++
	if len(e.firings) >= e.maxFirings {
		n := copy(e.firings, e.firings[1:])
		e.firings = e.firings[:n]
		e.firingsDropped++
	}
	e.firings = append(e.firings, f)
	if e.onFire != nil {
		e.onFire(f)
	}
}

// Firings returns a copy of the retained firing log, oldest first.
func (e *Engine) Firings() []Firing {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Firing(nil), e.firings...)
}

// Fired returns the lifetime firing count.
func (e *Engine) Fired() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firedTotal
}

// RingDropped returns the lifetime count of events dropped on a full ring.
func (e *Engine) RingDropped() int64 { return e.ring.dropped() }

// Snapshot assembles the counters view.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{
		Rules:          len(e.rules),
		Published:      e.published.Load(),
		Dropped:        e.ring.dropped(),
		Ingested:       e.ingested,
		Evaluations:    e.evals,
		Fired:          e.firedTotal,
		RingCap:        e.ring.cap(),
		FiringsDropped: e.firingsDropped,
		SubjectsCapped: e.subjectsCapped,
	}
	for _, rs := range e.rules {
		s.RuleStats = append(s.RuleStats, RuleStat{
			Name:      rs.c.rule.Name,
			Kind:      rs.c.rule.Kind,
			Fired:     rs.fired,
			LastFired: rs.lastFired,
		})
	}
	return s
}

// Replay runs a recorded event sequence through a fresh engine, evaluating
// after every event (earliest-possible firing semantics), and returns the
// firings — the offline path wdstat -rules uses.
func Replay(rules []Rule, events []Event) ([]Firing, error) {
	eng, err := NewEngine(Config{Rules: rules, MaxFirings: len(events) + 1})
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		eng.Publish(ev)
		eng.Evaluate(ev.Time)
	}
	return eng.Firings(), nil
}

// ── per-rule state ──────────────────────────────────────────────────────────

// hit is one windowed trigger event.
type hit struct {
	t       time.Time
	checker string
}

// streak tracks one subject's consecutive-abnormal run.
type streak struct {
	n          int
	first      time.Time
	last       time.Time
	gaugeStart float64
	gaugeOK    bool
	fired      bool
}

// flapTrack tracks one subject's healthy→abnormal raise history.
type flapTrack struct {
	abnormal      bool
	healthySet    bool
	healthyAt     time.Time
	raises        []time.Time
	cooldownUntil time.Time
}

// ruleState is one compiled rule plus its runtime accumulation state. All
// access is under the engine mutex.
type ruleState struct {
	c compiled

	// count/distinct: windowed trigger hits plus the shared healthy-gap
	// tracker, and a reused scratch set for distinct counting.
	hits          []hit
	hitCap        int
	healthySet    bool
	healthyAt     time.Time
	cooldownUntil time.Time
	scratch       map[string]struct{}

	// consecutive / flap: per-subject trackers.
	streaks map[string]*streak
	flaps   map[string]*flapTrack

	fired     int64
	lastFired time.Time
}

func newRuleState(c compiled) *ruleState {
	rs := &ruleState{c: c}
	switch c.rule.Kind {
	case KindCount, KindDistinct:
		rs.hitCap = c.rule.Count * 4
		if rs.hitCap < 64 {
			rs.hitCap = 64
		}
		rs.hits = make([]hit, 0, rs.hitCap)
		rs.scratch = make(map[string]struct{}, 16)
	case KindConsecutive:
		rs.streaks = make(map[string]*streak, 8)
	case KindFlap:
		rs.flaps = make(map[string]*flapTrack, 8)
	}
	return rs
}

// ingest feeds one event into the rule's accumulation state.
func (rs *ruleState) ingest(ev *Event, e *Engine) {
	if !rs.c.subject(ev) {
		return
	}
	switch rs.c.rule.Kind {
	case KindCount, KindDistinct:
		rs.ingestWindowed(ev)
	case KindConsecutive:
		rs.ingestConsecutive(ev, e)
	case KindFlap:
		rs.ingestFlap(ev, e)
	}
}

func (rs *ruleState) ingestWindowed(ev *Event) {
	if rs.c.healthy(ev) {
		// Remember when health began; a later trigger checks whether the
		// gap was long enough to clear the window. The gap is evaluated
		// across the rule's whole subject set — these rules correlate
		// across subjects by design.
		if !rs.healthySet {
			rs.healthySet = true
			rs.healthyAt = ev.Time
		}
		return
	}
	if !rs.c.trigger(ev) {
		return
	}
	if rs.healthySet {
		if rs.c.healthyFor > 0 && ev.Time.Sub(rs.healthyAt) >= rs.c.healthyFor {
			rs.hits = rs.hits[:0]
		}
		rs.healthySet = false
	}
	if len(rs.hits) == rs.hitCap {
		// Drop the oldest half in one move: amortized O(1) per insert, and
		// since hitCap ≥ 4×Count the surviving half still spans ≥ 2×Count
		// hits, so the threshold stays reachable.
		n := copy(rs.hits, rs.hits[rs.hitCap/2:])
		rs.hits = rs.hits[:n]
	}
	rs.hits = append(rs.hits, hit{t: ev.Time, checker: ev.Checker})
}

func (rs *ruleState) ingestConsecutive(ev *Event, e *Engine) {
	st := rs.streaks[ev.Checker]
	switch {
	case rs.c.trigger(ev):
		if st == nil {
			if len(rs.streaks) >= maxSubjects {
				e.subjectsCapped++
				return
			}
			st = &streak{}
			rs.streaks[ev.Checker] = st
		}
		if st.n == 0 {
			st.first = ev.Time
			st.gaugeOK = false
			if rs.c.rule.Gauge != "" && e.gauge != nil {
				st.gaugeStart, st.gaugeOK = e.gauge(rs.c.rule.Gauge)
			}
		}
		st.n++
		st.last = ev.Time
	case rs.c.healthy(ev):
		if st != nil {
			st.n = 0
			st.fired = false
		}
	}
}

func (rs *ruleState) ingestFlap(ev *Event, e *Engine) {
	ft := rs.flaps[ev.Checker]
	switch {
	case rs.c.trigger(ev):
		if ft == nil {
			if len(rs.flaps) >= maxSubjects {
				e.subjectsCapped++
				return
			}
			raiseCap := rs.c.rule.Count * 2
			if raiseCap < 16 {
				raiseCap = 16
			}
			ft = &flapTrack{raises: make([]time.Time, 0, raiseCap)}
			rs.flaps[ev.Checker] = ft
		}
		if ft.healthySet {
			if rs.c.healthyFor > 0 && ev.Time.Sub(ft.healthyAt) >= rs.c.healthyFor {
				// A sustained-healthy gap: the subject genuinely recovered,
				// so earlier raises no longer count as flapping.
				ft.raises = ft.raises[:0]
			}
			ft.healthySet = false
		}
		if !ft.abnormal {
			ft.abnormal = true
			if len(ft.raises) == cap(ft.raises) {
				// Amortized O(1) drop-oldest-half; the cap is 2×Count so the
				// surviving half still reaches the threshold.
				n := copy(ft.raises, ft.raises[cap(ft.raises)/2:])
				ft.raises = ft.raises[:n]
			}
			ft.raises = append(ft.raises, ev.Time)
		}
	case rs.c.healthy(ev):
		if ft != nil {
			ft.abnormal = false
			if !ft.healthySet {
				ft.healthySet = true
				ft.healthyAt = ev.Time
			}
		}
	}
}

// evaluate runs the rule's threshold check at now, firing through e.
func (rs *ruleState) evaluate(now time.Time, e *Engine) {
	switch rs.c.rule.Kind {
	case KindCount, KindDistinct:
		rs.evaluateWindowed(now, e)
	case KindConsecutive:
		rs.evaluateConsecutive(now, e)
	case KindFlap:
		rs.evaluateFlap(now, e)
	}
}

func (rs *ruleState) evaluateWindowed(now time.Time, e *Engine) {
	// Prune hits that slid out of the window, in place.
	cutoff := now.Add(-rs.c.window)
	keep := 0
	for keep < len(rs.hits) && rs.hits[keep].t.Before(cutoff) {
		keep++
	}
	if keep > 0 {
		n := copy(rs.hits, rs.hits[keep:])
		rs.hits = rs.hits[:n]
	}
	if now.Before(rs.cooldownUntil) || len(rs.hits) == 0 {
		return
	}
	measured := len(rs.hits)
	if rs.c.rule.Kind == KindDistinct {
		clear(rs.scratch)
		for i := range rs.hits {
			rs.scratch[rs.hits[i].checker] = struct{}{}
		}
		measured = len(rs.scratch)
	}
	if measured < rs.c.rule.Count {
		return
	}
	f := Firing{
		Rule:   rs.c.rule.Name,
		Status: rs.c.severity,
		Time:   now,
		Count:  measured,
		First:  rs.hits[0].t,
		Last:   rs.hits[len(rs.hits)-1].t,
	}
	f.Checkers = distinctCheckers(rs.hits)
	f.Detail = fmt.Sprintf("%d events from %d checkers within %v",
		len(rs.hits), len(f.Checkers), rs.c.window)
	rs.hits = rs.hits[:0]
	rs.cooldownUntil = now.Add(rs.c.cooldown)
	rs.recordFire(f, e)
}

func (rs *ruleState) evaluateConsecutive(now time.Time, e *Engine) {
	for name, st := range rs.streaks {
		if st.fired || st.n < rs.c.rule.Count {
			continue
		}
		if rs.c.rule.Gauge != "" {
			// Fire only on confirmed growth: no gauge source, a vanished
			// gauge, or insufficient delta all keep the rule quiet.
			if !st.gaugeOK || e.gauge == nil {
				continue
			}
			cur, ok := e.gauge(rs.c.rule.Gauge)
			if !ok || cur-st.gaugeStart < rs.c.rule.GaugeDelta {
				continue
			}
		}
		st.fired = true
		f := Firing{
			Rule:     rs.c.rule.Name,
			Status:   rs.c.severity,
			Time:     now,
			Count:    st.n,
			Checkers: []string{name},
			First:    st.first,
			Last:     st.last,
			Detail:   fmt.Sprintf("%s abnormal on %d consecutive events", name, st.n),
		}
		if rs.c.rule.Gauge != "" {
			f.Detail += fmt.Sprintf(" while gauge %s grew ≥ %g", rs.c.rule.Gauge, rs.c.rule.GaugeDelta)
		}
		rs.recordFire(f, e)
	}
}

func (rs *ruleState) evaluateFlap(now time.Time, e *Engine) {
	cutoff := now.Add(-rs.c.window)
	for name, ft := range rs.flaps {
		keep := 0
		for keep < len(ft.raises) && ft.raises[keep].Before(cutoff) {
			keep++
		}
		if keep > 0 {
			n := copy(ft.raises, ft.raises[keep:])
			ft.raises = ft.raises[:n]
		}
		if len(ft.raises) < rs.c.rule.Count || now.Before(ft.cooldownUntil) {
			continue
		}
		f := Firing{
			Rule:     rs.c.rule.Name,
			Status:   rs.c.severity,
			Time:     now,
			Count:    len(ft.raises),
			Checkers: []string{name},
			First:    ft.raises[0],
			Last:     ft.raises[len(ft.raises)-1],
			Detail: fmt.Sprintf("%s raised %d times within %v without a sustained-healthy gap",
				name, len(ft.raises), rs.c.window),
		}
		ft.raises = ft.raises[:0]
		ft.cooldownUntil = now.Add(rs.c.cooldown)
		rs.recordFire(f, e)
	}
}

// recordFire updates the rule counters and hands the firing to the engine.
func (rs *ruleState) recordFire(f Firing, e *Engine) {
	rs.fired++
	rs.lastFired = f.Time
	e.fire(f)
}

// distinctCheckers returns the sorted unique checker names among hits.
func distinctCheckers(hits []hit) []string {
	out := make([]string, 0, 4)
	for i := range hits {
		name := hits[i].checker
		found := false
		for _, have := range out {
			if have == name {
				found = true
				break
			}
		}
		if !found {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
