package detect

import "time"

// LastBeat returns the time of the most recent beat and whether any beat has
// been received.
func (h *Heartbeat) LastBeat() (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, h.beats > 0
}

// Beats returns the total number of beats received.
func (h *Heartbeat) Beats() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.beats
}
