package watchdog

import (
	"sync"
	"time"

	"gowatchdog/internal/clock"
)

// alarmGate damps alarm flapping: identical alarms — same (checker, site,
// status) — raised inside a suppression window collapse into the first one,
// and the next alarm that escapes carries the number of suppressed
// duplicates in Alarm.Flaps. Recovery handlers and the detection journal see
// a fault storm as one damped alarm instead of thousands of copies.
//
// The driver consults its gate when constructed with WithAlarmDamping and
// counts what it swallows (Driver.AlarmsSuppressed). Admit is safe for
// concurrent use.
type alarmGate struct {
	clk    clock.Clock
	window time.Duration

	mu   sync.Mutex
	seen map[gateKey]*gateEntry
}

// gateKey identifies an alarm family for deduplication.
type gateKey struct {
	checker string
	site    Site
	status  Status
}

// gateEntry tracks one alarm family's last escape and suppressed count.
type gateEntry struct {
	lastEscape time.Time
	suppressed int
}

// gatePruneLimit bounds the dedup map: past this many families, entries
// whose window has long expired are dropped on the next Admit.
const gatePruneLimit = 1024

// newAlarmGate returns a gate that suppresses duplicate alarms for window
// after each escaped alarm.
func newAlarmGate(clk clock.Clock, window time.Duration) *alarmGate {
	return &alarmGate{clk: clk, window: window, seen: make(map[gateKey]*gateEntry)}
}

// Admit decides one alarm's fate. When the alarm escapes, the returned copy
// carries the suppressed-duplicate count in Flaps and ok is true; when it is
// suppressed, ok is false and the alarm must not be forwarded.
func (g *alarmGate) Admit(a Alarm) (Alarm, bool) {
	key := gateKey{checker: a.Report.Checker, site: a.Report.Site, status: a.Report.Status}
	now := g.clk.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.seen[key]
	if !ok {
		if len(g.seen) >= gatePruneLimit {
			g.pruneLocked(now)
		}
		e = &gateEntry{}
		g.seen[key] = e
	} else if now.Sub(e.lastEscape) < g.window {
		e.suppressed++
		return a, false
	}
	a.Flaps = e.suppressed
	e.suppressed = 0
	e.lastEscape = now
	return a, true
}

// pruneLocked drops families whose suppression window expired with nothing
// pending. Called with g.mu held.
func (g *alarmGate) pruneLocked(now time.Time) {
	for k, e := range g.seen {
		if e.suppressed == 0 && now.Sub(e.lastEscape) >= g.window {
			delete(g.seen, k)
		}
	}
}
