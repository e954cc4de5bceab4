package clock

import "time"

// AdvanceTo moves the virtual clock forward to t. It panics if t is in the
// past.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	d := t.Sub(v.now)
	v.mu.Unlock()
	v.Advance(d)
}
