// Package recovery implements the paper's §5.2 "cheap recovery"
// opportunity: because watchdog alarms localize the failing operation and
// carry its context, recovery can replace the corrupted object, connection
// or component instead of restarting the whole process — the microreboot
// idea driven by watchdog pinpointing.
//
// A Manager subscribes to a watchdog driver's alarms and applies the first
// registered Action that matches the report. Repeated alarms from the same
// checker escalate: after MaxAttempts failed or ineffective recoveries
// within the escalation window, the Escalation action (typically "restart
// the process") runs instead.
package recovery

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// Action attempts to repair the failure an alarm describes.
type Action interface {
	// Name identifies the action in the event log.
	Name() string
	// Matches reports whether this action applies to the report.
	Matches(rep watchdog.Report) bool
	// Recover attempts the repair; a nil return means the repair was
	// applied (not necessarily that the fault is gone — the watchdog will
	// re-check).
	Recover(rep watchdog.Report) error
}

// ActionFunc adapts functions to the Action interface.
type ActionFunc struct {
	// ActionName is returned by Name.
	ActionName string
	// Match is invoked by Matches.
	Match func(rep watchdog.Report) bool
	// Fn is invoked by Recover.
	Fn func(rep watchdog.Report) error
}

// Name implements Action.
func (a ActionFunc) Name() string { return a.ActionName }

// Matches implements Action.
func (a ActionFunc) Matches(rep watchdog.Report) bool { return a.Match(rep) }

// Recover implements Action.
func (a ActionFunc) Recover(rep watchdog.Report) error { return a.Fn(rep) }

// ForChecker returns an action matching alarms from checkers whose name has
// the given prefix.
func ForChecker(name, prefix string, fn func(rep watchdog.Report) error) Action {
	return ActionFunc{
		ActionName: name,
		Match: func(rep watchdog.Report) bool {
			return strings.HasPrefix(rep.Checker, prefix)
		},
		Fn: fn,
	}
}

// ForSiteOp returns an action matching alarms whose pinpointed operation
// contains the given substring — recovery keyed on the localization the
// watchdog provides.
func ForSiteOp(name, opSubstr string, fn func(rep watchdog.Report) error) Action {
	return ActionFunc{
		ActionName: name,
		Match: func(rep watchdog.Report) bool {
			return strings.Contains(rep.Site.Op, opSubstr)
		},
		Fn: fn,
	}
}

// EventKind classifies recovery log entries.
type EventKind int

const (
	// EventRecovered means an action ran successfully.
	EventRecovered EventKind = iota
	// EventFailed means the matched action returned an error.
	EventFailed
	// EventEscalated means the escalation action ran.
	EventEscalated
	// EventUnmatched means no action matched the alarm.
	EventUnmatched
	// EventRetried means an attempt failed and a retry is scheduled; only
	// the final failure of a cycle is logged as EventFailed.
	EventRetried
	// EventExited means the escalation-exit rung fired: in-process recovery
	// is out of options and the process is terminating so an external
	// supervisor can restart it (WithEscalationExit).
	EventExited
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EventRecovered:
		return "recovered"
	case EventFailed:
		return "failed"
	case EventEscalated:
		return "escalated"
	case EventRetried:
		return "retried"
	case EventExited:
		return "exited"
	default:
		return "unmatched"
	}
}

// Event is one entry in the recovery log.
type Event struct {
	// Kind classifies the entry.
	Kind EventKind
	// Checker is the alarming checker.
	Checker string
	// Action is the action that ran (empty for unmatched).
	Action string
	// Err is the action error for EventFailed/EventRetried.
	Err error
	// Time is when the event was recorded.
	Time time.Time
	// Attempt is the zero-based attempt number within a recovery cycle.
	Attempt int
}

// Manager routes alarms to actions with per-checker escalation. A failed
// action optionally retries with exponential backoff (WithRetry); a whole
// recovery cycle — initial attempt plus retries — counts as one attempt
// toward escalation only once it completes, so a transiently-failing repair
// that succeeds on retry never escalates. Sustained checker health clears
// the escalation state (WithHealthyReset).
type Manager struct {
	clk          clock.Clock
	maxAttempts  int
	window       time.Duration
	escalation   Action
	retries      int
	retryBase    time.Duration
	healthyReset time.Duration
	eventCap     int

	exitArmed bool
	exitCode  int
	exitFn    func(int)

	mu        sync.Mutex
	actions   []Action
	attempts  map[string][]time.Time
	lastCycle map[string]time.Time   // per-checker completion time of the last cycle
	escalated map[string][]time.Time // per-checker escalation-action runs in the window
	ring      []Event                // fixed-size event ring, eventCap entries
	ringNext  int
	ringTotal int64
	onEvent   []func(Event)  // live listeners, invoked outside the lock
	wg        sync.WaitGroup // in-flight retry goroutines
}

// Option configures a Manager.
type Option func(*Manager)

// WithClock sets the clock (default real).
func WithClock(c clock.Clock) Option { return func(m *Manager) { m.clk = c } }

// WithMaxAttempts sets how many recoveries per checker are tried within the
// window before escalating (default 3).
func WithMaxAttempts(n int) Option { return func(m *Manager) { m.maxAttempts = n } }

// WithWindow sets the escalation window (default 1 minute).
func WithWindow(d time.Duration) Option { return func(m *Manager) { m.window = d } }

// WithEscalation sets the last-resort action (e.g. full restart).
func WithEscalation(a Action) Option { return func(m *Manager) { m.escalation = a } }

// WithRetry makes failed actions retry up to n more times with exponential
// backoff starting at base (base, 2·base, 4·base, …). Retries run on a
// background goroutine paced by the manager's clock; use Wait in tests. The
// default (0) keeps the original fail-once behaviour.
func WithRetry(n int, base time.Duration) Option {
	return func(m *Manager) {
		m.retries = n
		m.retryBase = base
	}
}

// WithHealthyReset clears a checker's escalation state once it has stayed
// healthy for d after its last recovery cycle. Wire the manager with
// driver.OnReport(m.ObserveReport) to feed it health signals. Zero means the
// escalation window (the default).
func WithHealthyReset(d time.Duration) Option { return func(m *Manager) { m.healthyReset = d } }

// WithEventCap sets the event-ring capacity (default 1024). Older events are
// dropped and counted once the ring wraps.
func WithEventCap(n int) Option { return func(m *Manager) { m.eventCap = n } }

// WithEscalationExit arms the top rung of the ladder: terminate the process
// with the given exit code so an external supervisor restarts it. It fires
// when a checker re-alarms past the escalation threshold after the
// escalation action has already run within the window — or immediately at
// the threshold when no escalation action is registered. EventExited is
// logged (and delivered to OnEvent listeners, e.g. the sdnotify trigger)
// before exiting. Use supervise.ExitWatchdogTrigger (70) so wdsuper records
// the restart cause as watchdog-trigger.
func WithEscalationExit(code int) Option {
	return func(m *Manager) {
		m.exitArmed = true
		m.exitCode = code
	}
}

// WithExitFunc replaces os.Exit for the escalation-exit rung (test seam —
// the replacement should not return for production use).
func WithExitFunc(fn func(code int)) Option { return func(m *Manager) { m.exitFn = fn } }

// New returns a Manager.
func New(opts ...Option) *Manager {
	m := &Manager{
		clk:         clock.Real(),
		maxAttempts: 3,
		window:      time.Minute,
		eventCap:    1024,
		exitFn:      os.Exit,
		attempts:    make(map[string][]time.Time),
		lastCycle:   make(map[string]time.Time),
		escalated:   make(map[string][]time.Time),
	}
	for _, o := range opts {
		o(m)
	}
	if m.eventCap < 1 {
		m.eventCap = 1
	}
	if m.healthyReset <= 0 {
		m.healthyReset = m.window
	}
	if m.retryBase <= 0 {
		m.retryBase = time.Second
	}
	m.ring = make([]Event, 0, m.eventCap)
	return m
}

// Register appends an action; actions are tried in registration order.
func (m *Manager) Register(a Action) {
	m.mu.Lock()
	m.actions = append(m.actions, a)
	m.mu.Unlock()
}

// HandleAlarm routes one alarm. Wire it with driver.OnAlarm(m.HandleAlarm).
// Alarms the validation chain dismissed (Validated == false) are ignored —
// no recovery for impact-free faults.
func (m *Manager) HandleAlarm(a watchdog.Alarm) {
	if a.Validated != nil && !*a.Validated {
		return
	}
	rep := a.Report
	now := m.clk.Now()

	m.mu.Lock()
	// Escalation bookkeeping: completed recovery cycles for this checker
	// inside the window. The current cycle is counted when it completes
	// (finishCycle), so retries inside one cycle are one attempt.
	recent := m.attempts[rep.Checker][:0]
	for _, t := range m.attempts[rep.Checker] {
		if now.Sub(t) <= m.window {
			recent = append(recent, t)
		}
	}
	m.attempts[rep.Checker] = recent
	escalate := len(recent) >= m.maxAttempts && (m.escalation != nil || m.exitArmed)
	exitNow := false
	if escalate && m.exitArmed {
		// The exit rung fires once escalation itself has been given a chance:
		// either an escalation run is already on record inside the window, or
		// there is no escalation action to try at all.
		esc := m.escalated[rep.Checker][:0]
		for _, t := range m.escalated[rep.Checker] {
			if now.Sub(t) <= m.window {
				esc = append(esc, t)
			}
		}
		m.escalated[rep.Checker] = esc
		exitNow = m.escalation == nil || len(esc) > 0
	}
	if escalate && !exitNow && m.exitArmed {
		m.escalated[rep.Checker] = append(m.escalated[rep.Checker], now)
	}
	var action Action
	if !escalate {
		for _, cand := range m.actions {
			if cand.Matches(rep) {
				action = cand
				break
			}
		}
	}
	m.mu.Unlock()

	switch {
	case exitNow:
		// Logged first so OnEvent listeners (journal, sdnotify trigger) run
		// before the process dies — exitFn normally never returns.
		m.log(Event{Kind: EventExited, Checker: rep.Checker, Time: now})
		m.exitFn(m.exitCode)
	case escalate:
		err := m.escalation.Recover(rep)
		m.log(Event{Kind: EventEscalated, Checker: rep.Checker,
			Action: m.escalation.Name(), Err: err, Time: now})
	case action == nil:
		m.log(Event{Kind: EventUnmatched, Checker: rep.Checker, Time: now})
	default:
		err := action.Recover(rep)
		if err == nil {
			m.log(Event{Kind: EventRecovered, Checker: rep.Checker,
				Action: action.Name(), Time: now})
			m.finishCycle(rep.Checker, now)
			return
		}
		if m.retries <= 0 {
			m.log(Event{Kind: EventFailed, Checker: rep.Checker,
				Action: action.Name(), Err: err, Time: now})
			m.finishCycle(rep.Checker, now)
			return
		}
		m.log(Event{Kind: EventRetried, Checker: rep.Checker,
			Action: action.Name(), Err: err, Time: now})
		m.wg.Add(1)
		go m.retryLoop(action, rep)
	}
}

// retryLoop re-runs action with exponential backoff until it succeeds or the
// retry budget is exhausted, then completes the cycle.
func (m *Manager) retryLoop(action Action, rep watchdog.Report) {
	defer m.wg.Done()
	delay := m.retryBase
	for attempt := 1; attempt <= m.retries; attempt++ {
		m.clk.Sleep(delay)
		delay *= 2
		err := action.Recover(rep)
		now := m.clk.Now()
		switch {
		case err == nil:
			m.log(Event{Kind: EventRecovered, Checker: rep.Checker,
				Action: action.Name(), Time: now, Attempt: attempt})
			m.finishCycle(rep.Checker, now)
			return
		case attempt == m.retries:
			m.log(Event{Kind: EventFailed, Checker: rep.Checker,
				Action: action.Name(), Err: err, Time: now, Attempt: attempt})
			m.finishCycle(rep.Checker, now)
			return
		default:
			m.log(Event{Kind: EventRetried, Checker: rep.Checker,
				Action: action.Name(), Err: err, Time: now, Attempt: attempt})
		}
	}
}

// finishCycle records one completed recovery cycle toward escalation.
func (m *Manager) finishCycle(checker string, at time.Time) {
	m.mu.Lock()
	m.attempts[checker] = append(m.attempts[checker], at)
	m.lastCycle[checker] = at
	m.mu.Unlock()
}

// ObserveReport feeds checker health back into escalation state: once a
// checker has stayed healthy for the healthy-reset period after its last
// recovery cycle, its attempt history is cleared. Wire it with
// driver.OnReport(m.ObserveReport).
func (m *Manager) ObserveReport(rep watchdog.Report) {
	if rep.Status != watchdog.StatusHealthy {
		return
	}
	now := m.clk.Now()
	m.mu.Lock()
	if last, ok := m.lastCycle[rep.Checker]; ok && now.Sub(last) >= m.healthyReset {
		delete(m.attempts, rep.Checker)
		delete(m.lastCycle, rep.Checker)
		delete(m.escalated, rep.Checker)
	}
	m.mu.Unlock()
}

// Wait blocks until all in-flight retry cycles have completed; tests use it
// to make retry outcomes deterministic.
func (m *Manager) Wait() { m.wg.Wait() }

// OnEvent registers fn to receive every subsequent recovery log entry —
// wdruntime journals them as KindRecovery detection events so temporal rules
// and wdstat see recovery outcomes next to the detections that caused
// them. Listeners run synchronously on the logging goroutine (which may be a
// retry goroutine), outside the manager lock; they must not block. Register
// before the manager starts handling alarms.
func (m *Manager) OnEvent(fn func(Event)) {
	m.mu.Lock()
	m.onEvent = append(m.onEvent, fn)
	m.mu.Unlock()
}

func (m *Manager) log(e Event) {
	m.mu.Lock()
	if len(m.ring) < m.eventCap {
		m.ring = append(m.ring, e)
	} else {
		m.ring[m.ringNext] = e
	}
	m.ringNext = (m.ringNext + 1) % m.eventCap
	m.ringTotal++
	fns := m.onEvent
	m.mu.Unlock()
	for _, fn := range fns {
		fn(e)
	}
}

// Events returns a copy of the retained recovery log, oldest first. Once
// more than the event cap (WithEventCap) have been logged, the oldest are
// gone; DroppedEvents counts them.
func (m *Manager) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, 0, len(m.ring))
	if len(m.ring) < m.eventCap {
		out = append(out, m.ring...)
		return out
	}
	out = append(out, m.ring[m.ringNext:]...)
	out = append(out, m.ring[:m.ringNext]...)
	return out
}

// TotalEvents returns how many events have ever been logged (retained plus
// dropped) — the denominator the observability layer pairs with
// DroppedEvents.
func (m *Manager) TotalEvents() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ringTotal
}

// DroppedEvents returns how many events fell out of the bounded ring.
func (m *Manager) DroppedEvents() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.ringTotal - int64(len(m.ring)); n > 0 {
		return n
	}
	return 0
}

// Summary renders the log compactly.
func (m *Manager) Summary() string {
	var b strings.Builder
	if dropped := m.DroppedEvents(); dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", dropped)
	}
	for _, e := range m.Events() {
		fmt.Fprintf(&b, "[%s] checker=%s action=%s", e.Kind, e.Checker, e.Action)
		if e.Attempt > 0 {
			fmt.Fprintf(&b, " attempt=%d", e.Attempt)
		}
		if e.Err != nil {
			fmt.Fprintf(&b, " err=%v", e.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
