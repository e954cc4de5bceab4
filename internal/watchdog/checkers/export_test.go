package checkers

import (
	"runtime"
	"time"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

// ProbeContext returns a pre-ready context for probe checkers, which have no
// state to synchronize.
func ProbeContext() *watchdog.Context {
	ctx := watchdog.NewContext()
	ctx.MarkReady()
	return ctx
}

// GaugeBelow returns a signal checker that reports when g drops below
// threshold (e.g. free disk space).
func GaugeBelow(name, indicator string, g *gauge.Gauge, threshold float64) watchdog.Checker {
	return signal(name, indicator, g.Value, func(v float64) (bool, float64) {
		return v < threshold, threshold
	})
}

// WindowQuantileAbove returns a signal checker on a latency window's
// q-quantile.
func WindowQuantileAbove(name, indicator string, w *gauge.Window, q, threshold float64) watchdog.Checker {
	return signal(name, indicator, func() float64 { return w.Quantile(q) },
		func(v float64) (bool, float64) { return v > threshold, threshold })
}

// DiskRoundTrip returns a mimic checker that performs a real
// write-read-verify-remove cycle on the shadow filesystem, with the payload
// taken from the checker context when available (the failure-inducing data
// the main program last flushed). This is the HDFS disk-checker pattern the
// paper cites: create files and do real I/O the way the DataNode does.
func DiskRoundTrip(name string, fs *wdio.FS, site watchdog.Site, payloadKey string) watchdog.Checker {
	return watchdog.NewChecker(name, func(ctx *watchdog.Context) error {
		payload := ctx.GetBytes(payloadKey)
		if len(payload) == 0 {
			payload = []byte("watchdog disk probe payload 0123456789abcdef")
		}
		return watchdog.Op(ctx, site, func() error {
			return fs.RoundTrip(name+".probe", payload)
		})
	})
}

// HeapLimit returns a signal checker that reports when the Go heap exceeds
// maxBytes — the memory-pressure indicator.
func HeapLimit(name string, maxBytes uint64) watchdog.Checker {
	return signal(name, "heap-bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}, func(v float64) (bool, float64) {
		return v > float64(maxBytes), float64(maxBytes)
	})
}

// GoroutineLimit returns a signal checker that reports when the process has
// more than max goroutines — a leak/deadlock-pileup indicator.
func GoroutineLimit(name string, max int) watchdog.Checker {
	return signal(name, "goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	}, func(v float64) (bool, float64) {
		return v > float64(max), float64(max)
	})
}

// SchedulerDelay returns the paper's GC-pause/overload detector (§3.3): a
// worker sleeps for a short interval; if the observed elapsed time exceeds
// sleep+tolerance, the runtime is stalling threads (long GC pause, CPU
// starvation, severe thrashing). sleeper and now default to the real clock
// when nil, and are injectable for deterministic tests.
func SchedulerDelay(name string, sleep, tolerance time.Duration,
	sleeper func(time.Duration), now func() time.Time) watchdog.Checker {
	if sleeper == nil {
		sleeper = time.Sleep
	}
	if now == nil {
		now = time.Now
	}
	return signal(name, "sched-delay", func() float64 {
		start := now()
		sleeper(sleep)
		return float64(now().Sub(start) - sleep)
	}, func(v float64) (bool, float64) {
		return v > float64(tolerance), float64(tolerance)
	})
}
