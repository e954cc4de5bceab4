// Package wdobs is the watchdog observability subsystem: it makes the
// paper's §3.2 efficiency argument — watchdogs must stay cheap and their
// verdicts must be actionable in production — verifiable at runtime.
//
// A deployed watchdog that detects gray failures but exports nothing about
// what it saw is itself a gray box. wdobs attaches to a watchdog.Driver as
// its Observer and maintains, per checker: run counts by resulting status,
// status-transition counts, an execution-latency histogram, and timeout/hang
// tallies; plus a context-staleness gauge derived from each Context's hook
// sync timestamps. Detections land in a bounded ring-buffer journal with an
// optional JSONL sink that cmd/wdstat renders.
//
// Everything is standard library only and lock-cheap: the per-execution path
// is a handful of atomic adds, and a driver without an observer pays one nil
// check (benchmarked in internal/watchdog and here).
//
// The Obs exposes itself over HTTP (see server.go): /metrics in Prometheus
// text format, /healthz for liveness probes, /watchdog as a JSON live
// snapshot for cmd/wdstat, and net/http/pprof under /debug/pprof/.
package wdobs

import (
	"io"
	"sync"
	"sync/atomic"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/supervise/episode"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdmesh"
)

// numStatuses bounds the per-status counter array; statuses are small ints.
const numStatuses = int(watchdog.StatusSkipped) + 1

// checkerMetrics aggregates one checker's execution telemetry.
type checkerMetrics struct {
	runs        [numStatuses]gauge.Counter // executions by resulting status
	transitions gauge.Counter              // status changes between consecutive reports
	latency     *Histogram                 // execution latency (skips context-pending)
}

// Obs is the observability subsystem for one driver. Create it with New,
// wire it with Attach before the driver starts, and expose it with Serve.
// All methods are safe for concurrent use.
type Obs struct {
	sinkW io.Writer

	mu       sync.RWMutex
	checkers map[string]*checkerMetrics
	driver   *watchdog.Driver
	registry *gauge.Registry
	meshFn   func() *wdmesh.Snapshot
	cepFn    func() *wdcep.Snapshot

	recoveryFn func() *RecoverySnapshot
	episodesFn func() *episode.Snapshot

	// last caches the most recently observed checker. Reports for one
	// checker arrive in bursts (CheckNow loops, per-checker schedules), so
	// this turns the common ObserveReport lookup into one atomic load plus a
	// pointer-equal string compare instead of an RWMutex'd map access.
	last atomic.Pointer[checkerCacheEntry]

	journal *Journal
	reports gauge.Counter
	alarms  gauge.Counter
}

// Option configures an Obs.
type Option func(*Obs)

// WithSink streams every journal event to w as JSONL.
func WithSink(w io.Writer) Option { return func(o *Obs) { o.sinkW = w } }

// WithRegistry additionally exports the main program's gauge.Registry — the
// same metrics signal checkers sample — on /metrics as app_* series.
func WithRegistry(r *gauge.Registry) Option { return func(o *Obs) { o.registry = r } }

// New returns an Obs with the given options applied.
func New(opts ...Option) *Obs {
	o := &Obs{
		checkers: make(map[string]*checkerMetrics),
		journal:  NewJournal(512),
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.sinkW != nil {
		o.journal.SetSink(o.sinkW)
	}
	return o
}

// Attach registers o as d's execution observer and remembers the driver for
// snapshots. Call before d.Start(), like every other driver wiring.
func (o *Obs) Attach(d *watchdog.Driver) {
	o.mu.Lock()
	o.driver = d
	o.mu.Unlock()
	d.SetObserver(o)
}

// Journal returns the detection journal.
func (o *Obs) Journal() *Journal { return o.journal }

// checkerCacheEntry pairs a checker name with its metrics for the
// last-checker fast path.
type checkerCacheEntry struct {
	name string
	cm   *checkerMetrics
}

// checker returns the metrics for name, creating them on first use.
func (o *Obs) checker(name string) *checkerMetrics {
	if e := o.last.Load(); e != nil && e.name == name {
		return e.cm
	}
	o.mu.RLock()
	cm, ok := o.checkers[name]
	o.mu.RUnlock()
	if !ok {
		o.mu.Lock()
		if cm, ok = o.checkers[name]; !ok {
			cm = &checkerMetrics{latency: NewHistogram()}
			o.checkers[name] = cm
		}
		o.mu.Unlock()
	}
	o.last.Store(&checkerCacheEntry{name: name, cm: cm})
	return cm
}

// ObserveReport implements watchdog.Observer: count the execution, histogram
// its latency, track status transitions, and journal detections.
func (o *Obs) ObserveReport(rep watchdog.Report, prev watchdog.Status, first bool) {
	o.reports.Inc()
	cm := o.checker(rep.Checker)
	if s := int(rep.Status); s >= 0 && s < numStatuses {
		cm.runs[s].Inc()
	}
	if rep.Status != watchdog.StatusContextPending && rep.Status != watchdog.StatusSkipped {
		cm.latency.Observe(rep.Latency)
	}
	transition := !first && prev != rep.Status
	if transition {
		cm.transitions.Inc()
	}
	if first || transition || rep.Status.Abnormal() {
		o.journal.Append(Event{Kind: KindReport, Report: rep})
	}
}

// ObserveAlarm implements watchdog.Observer.
func (o *Obs) ObserveAlarm(a watchdog.Alarm) {
	o.alarms.Inc()
	o.journal.Append(Event{
		Kind:        KindAlarm,
		Report:      a.Report,
		Consecutive: a.Consecutive,
		Validated:   a.Validated,
	})
}
