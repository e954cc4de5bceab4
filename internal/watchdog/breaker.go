package watchdog

import (
	"fmt"
	"time"
)

// BreakerState is the circuit-breaker state of one registered checker.
//
// The breaker protects the driver from its own checkers (§3.2 isolation, in
// reverse): a checker that crashes, hangs, or errors on every run is not a
// detection signal anymore — it is a defect in the watchdog itself, and
// rescheduling it at full cadence leaks a reaped goroutine per timeout and
// floods the alarm path. After BreakerConfig.Threshold consecutive such
// outcomes the breaker opens, executions are skipped (StatusSkipped) with
// exponential backoff plus jitter, a single probe run half-opens it once the
// backoff elapses, and a successful probe closes it again.
type BreakerState int

const (
	// BreakerClosed is the normal state: executions proceed.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits exactly one probe execution after the open
	// backoff elapses; its outcome decides between Closed and Open.
	BreakerHalfOpen
	// BreakerOpen skips executions until the next-eligible time.
	BreakerOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig configures the per-checker circuit breaker. The zero value
// disables the breaker; set Threshold > 0 to enable it for every checker with
// WithBreaker.
type BreakerConfig struct {
	// Threshold is how many consecutive checker failures — StatusError,
	// StatusStuck, or StatusCrashed — trip the breaker open. <= 0 disables
	// the breaker. StatusSlow does not count: a slow checker still completes
	// and still observes the main program.
	Threshold int
	// BackoffBase is the first open interval; it doubles on every
	// consecutive trip. Zero means twice the checker's interval.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Zero means 64× BackoffBase.
	BackoffMax time.Duration
	// JitterFrac adds a uniformly random extra fraction of the backoff in
	// [0, JitterFrac), decorrelating probe storms when many checkers trip at
	// once. Zero means 0.2; negative disables jitter.
	JitterFrac float64
}

// enabled reports whether the breaker is active.
func (c BreakerConfig) enabled() bool { return c.Threshold > 0 }

// withDefaults resolves zero fields against the checker's interval.
func (c BreakerConfig) withDefaults(interval time.Duration) BreakerConfig {
	if !c.enabled() {
		return c
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * interval
		if c.BackoffBase <= 0 {
			c.BackoffBase = time.Second
		}
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 64 * c.BackoffBase
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	} else if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	return c
}

// backoff returns the capped exponential backoff for the given consecutive
// trip streak (1 = first trip). Jitter is added by the driver, which owns
// the seeded RNG.
func (c BreakerConfig) backoff(streak int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < streak; i++ {
		if d >= c.BackoffMax/2 {
			return c.BackoffMax
		}
		d *= 2
	}
	if d > c.BackoffMax {
		d = c.BackoffMax
	}
	return d
}
