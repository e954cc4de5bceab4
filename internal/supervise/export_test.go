package supervise

import "time"

// Path returns the socket path.
func (nl *NotifyListener) Path() string { return nl.path }

// State reports the current child's notify state.
func (nl *NotifyListener) State() (ready, stopping bool, lastFeed time.Time) {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	return nl.ready, nl.stopping, nl.lastFeed
}
