// Package checkers provides the three watchdog checker styles from Table 2
// of the paper:
//
//   - Probe checkers act like a special client, invoking the software's
//     public APIs with pre-supplied input. Perfect accuracy (any error is a
//     true contract violation) but weak completeness and no pinpointing.
//   - Signal checkers monitor health indicators (memory, goroutines,
//     scheduling delay, queue gauges). Good at environment/resource faults,
//     weak accuracy, partial localization.
//   - Mimic checkers select important operations from the main program and
//     imitate them with state synchronized through contexts. Strong
//     completeness and accuracy; pinpoint the failing operation.
//
// Probe and signal checkers are constructed here in full; mimic checkers are
// reduced functions (hand-written or emitted by the autowatchdog generator)
// registered with watchdog.NewChecker, each vulnerable operation run through
// watchdog.Op so a failure pinpoints it.
package checkers

import (
	"fmt"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/watchdog"
)

// Probe returns a probe-style checker. The function should exercise a public
// API end to end (e.g. SET then GET on kvs) and return an error only when
// the contract is violated. Probe checkers need no context; mark theirs
// ready at startup.
func Probe(name string, fn func() error) watchdog.Checker {
	return watchdog.NewChecker(name, func(*watchdog.Context) error {
		if err := fn(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	})
}

// SignalError reports a health-indicator threshold violation. Signal
// checkers cannot pinpoint a faulty instruction, but the indicator name
// narrows the cause "to some extent" (Table 2).
type SignalError struct {
	// Indicator names the violated health signal, e.g. "heap-bytes".
	Indicator string
	// Value and Threshold record the observation.
	Value, Threshold float64
}

// Error implements the error interface.
func (e *SignalError) Error() string {
	return fmt.Sprintf("signal %s: value %.2f violates threshold %.2f",
		e.Indicator, e.Value, e.Threshold)
}

// signal builds a signal checker around a sampled indicator.
func signal(name, indicator string, sample func() float64, violated func(v float64) (bool, float64)) watchdog.Checker {
	return watchdog.NewChecker(name, func(ctx *watchdog.Context) error {
		v := sample()
		bad, threshold := violated(v)
		if !bad {
			return nil
		}
		return &watchdog.OpError{
			Site: watchdog.Site{Op: "signal:" + indicator},
			Err:  &SignalError{Indicator: indicator, Value: v, Threshold: threshold},
		}
	})
}

// GaugeAbove returns a signal checker that reports when g exceeds threshold
// (e.g. request queue length at capacity).
func GaugeAbove(name, indicator string, g *gauge.Gauge, threshold float64) watchdog.Checker {
	return signal(name, indicator, g.Value, func(v float64) (bool, float64) {
		return v > threshold, threshold
	})
}

// CounterStalled returns a signal checker that reports when c has not
// advanced since the previous check — a progress indicator for a component
// that should be continuously doing work (but see Table 2: if the workload
// legitimately idles, this fires spuriously; that inaccuracy is inherent to
// the signal style and measured in experiment E2).
func CounterStalled(name, indicator string, c *gauge.Counter) watchdog.Checker {
	var last int64
	var seeded bool
	return watchdog.NewChecker(name, func(*watchdog.Context) error {
		cur := c.Value()
		if !seeded {
			seeded = true
			last = cur
			return nil
		}
		if cur == last {
			return &watchdog.OpError{
				Site: watchdog.Site{Op: "signal:" + indicator},
				Err:  &SignalError{Indicator: indicator, Value: float64(cur), Threshold: float64(last)},
			}
		}
		last = cur
		return nil
	})
}

// CounterRising returns a signal checker that reports when c advanced since
// the previous check — error-rate style alerting on a counter that should
// stay flat (e.g. an error counter).
func CounterRising(name, indicator string, c *gauge.Counter) watchdog.Checker {
	var last int64
	var seeded bool
	return watchdog.NewChecker(name, func(*watchdog.Context) error {
		cur := c.Value()
		if !seeded {
			seeded = true
			last = cur
			return nil
		}
		if cur > last {
			delta := cur - last
			last = cur
			return &watchdog.OpError{
				Site: watchdog.Site{Op: "signal:" + indicator},
				Err:  &SignalError{Indicator: indicator, Value: float64(delta), Threshold: 0},
			}
		}
		last = cur
		return nil
	})
}
