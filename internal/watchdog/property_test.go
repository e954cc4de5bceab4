package watchdog

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// TestAlarmLatchModelProperty verifies the driver's alarm policy against a
// reference model over arbitrary outcome sequences: an alarm fires exactly
// when the consecutive-abnormal streak reaches the threshold, stays latched
// through further abnormal reports, and re-arms after a healthy report.
func TestAlarmLatchModelProperty(t *testing.T) {
	f := func(outcomes []bool, thresholdRaw uint8) bool {
		threshold := int(thresholdRaw%4) + 1
		if len(outcomes) > 64 {
			outcomes = outcomes[:64]
		}

		d := New()
		idx := 0
		d.Register(NewChecker("model", func(*Context) error {
			fail := outcomes[idx]
			idx++
			if fail {
				return errors.New("scripted failure")
			}
			return nil
		}), Threshold(threshold))
		d.Factory().Context("model").MarkReady()

		var mu sync.Mutex
		gotAlarms := 0
		d.OnAlarm(func(Alarm) { mu.Lock(); gotAlarms++; mu.Unlock() })

		// Reference model.
		wantAlarms := 0
		streak := 0
		latched := false
		for _, fail := range outcomes {
			if fail {
				streak++
				if streak >= threshold && !latched {
					latched = true
					wantAlarms++
				}
			} else {
				streak = 0
				latched = false
			}
		}

		for range outcomes {
			if _, err := d.CheckNow("model"); err != nil {
				return false
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return gotAlarms == wantAlarms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsConsistencyProperty: runs+abnormal counters always agree with
// the scripted outcome sequence, and Healthy() mirrors the latest report.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(outcomes []bool) bool {
		if len(outcomes) == 0 {
			return true
		}
		if len(outcomes) > 64 {
			outcomes = outcomes[:64]
		}
		d := New()
		idx := 0
		d.Register(NewChecker("stats", func(*Context) error {
			fail := outcomes[idx]
			idx++
			if fail {
				return errors.New("x")
			}
			return nil
		}))
		d.Factory().Context("stats").MarkReady()
		wantAbnormal := 0
		for _, fail := range outcomes {
			if fail {
				wantAbnormal++
			}
			d.CheckNow("stats")
		}
		st := d.State()[0]
		if st.Runs != int64(len(outcomes)) || st.Abnormal != int64(wantAbnormal) {
			return false
		}
		lastFailed := outcomes[len(outcomes)-1]
		return d.Healthy() == !lastFailed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
