// Package detect implements the extrinsic crash failure detector the paper
// compares watchdogs against (Table 1, §6): a timeout-based heartbeat.
//
// The detector treats the monitored software as a coarse-grained node: a
// process is assumed healthy as long as it does *something* periodically.
// That assumption is exactly where it breaks — a process whose heartbeat
// thread is alive while its request pipeline is wedged (ZOOKEEPER-2201) stays
// "healthy" forever. The campaign package's heartbeat detector arm measures
// this on kvs; coordd serves it next to the watchdog for contrast.
package detect

import (
	"sync"
	"time"

	"gowatchdog/internal/clock"
)

// Heartbeat is a simple timeout-based crash failure detector. The monitored
// process calls Beat periodically; the detector suspects the process once no
// beat has arrived within the timeout.
type Heartbeat struct {
	clk     clock.Clock
	timeout time.Duration

	mu    sync.Mutex
	last  time.Time
	beats int64
}

// NewHeartbeat returns a detector that suspects the subject after timeout
// without a beat.
func NewHeartbeat(clk clock.Clock, timeout time.Duration) *Heartbeat {
	return &Heartbeat{clk: clk, timeout: timeout}
}

// Beat records a heartbeat from the monitored process.
func (h *Heartbeat) Beat() {
	h.mu.Lock()
	h.last = h.clk.Now()
	h.beats++
	h.mu.Unlock()
}

// Suspect reports whether the subject has missed its heartbeat deadline.
// Before the first beat the subject is not suspected (it may still be
// starting up).
func (h *Heartbeat) Suspect() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.beats == 0 {
		return false
	}
	return h.clk.Since(h.last) > h.timeout
}
