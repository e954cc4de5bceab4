package wdobs

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// TestSnapshotCarriesBreakerAndFlapState: the /watchdog snapshot and /metrics
// exposition surface the driver's self-hardening telemetry.
func TestSnapshotCarriesBreakerAndFlapState(t *testing.T) {
	v := clock.NewVirtual()
	o := New()
	d := watchdog.New(
		watchdog.WithClock(v),
		watchdog.WithBreaker(watchdog.BreakerConfig{Threshold: 2, BackoffBase: time.Hour, JitterFrac: -1}),
		watchdog.WithAlarmDamping(time.Hour),
	)
	d.Register(watchdog.NewChecker("doomed", func(*watchdog.Context) error {
		return errors.New("always broken")
	}))
	d.Register(watchdog.NewChecker("fine", func(*watchdog.Context) error { return nil }))
	d.Factory().Context("doomed").MarkReady()
	d.Factory().Context("fine").MarkReady()
	o.Attach(d)

	for i := 0; i < 4; i++ { // 2 errors trip it, then 2 skips
		d.CheckNow("doomed")
		d.CheckNow("fine")
		v.Advance(time.Second)
	}

	snap := o.Snapshot()
	if snap.BreakerTrips != 1 || snap.BreakerSkips != 2 {
		t.Fatalf("trips=%d skips=%d, want 1/2", snap.BreakerTrips, snap.BreakerSkips)
	}
	// Errors raise one alarm each (threshold 1, streak continues so only the
	// first alarms); damping is configured, nothing flapped yet.
	doomed := snap.Checkers[0]
	if doomed.Name != "doomed" || doomed.Breaker != "open" || doomed.BreakerTrips != 1 {
		t.Fatalf("doomed snapshot = %+v", doomed)
	}
	if doomed.BreakerRetryNS <= 0 {
		t.Fatalf("open breaker retry = %d, want > 0", doomed.BreakerRetryNS)
	}
	if doomed.Status != watchdog.StatusSkipped {
		t.Fatalf("doomed status = %v, want skipped", doomed.Status)
	}
	// The healthy checker runs under the same breaker and never trips it.
	if fine := snap.Checkers[1]; fine.Breaker != "closed" || fine.BreakerTrips != 0 {
		t.Fatalf("healthy checker's breaker = %+v, want closed with no trips", fine)
	}

	rec := httptest.NewRecorder()
	o.serveMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"watchdog_breaker_trips_total 1",
		"watchdog_breaker_skips_total 2",
		"watchdog_alarms_suppressed_total 0",
		"watchdog_hung_leaked 0",
		`watchdog_checker_breaker_state{checker="doomed"} 2`,
		`watchdog_checker_breaker_trips_total{checker="doomed"} 1`,
		`watchdog_checker_flaps_total{checker="doomed"} 0`,
		`watchdog_checker_breaker_state{checker="fine"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Skipped reports count as benign for /healthz ranking: a driver whose
	// only abnormal checker is breaker-skipped still reports the underlying
	// fault via Healthy (latest abnormal was replaced by skipped → healthy).
	if statusRank(watchdog.StatusSkipped) != statusRank(watchdog.StatusContextPending) {
		t.Error("skipped not ranked as benign")
	}
}
