package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"gowatchdog/internal/recovery"
)

// FaultOutcome is one injected fault and how the watchdog loop handled it.
type FaultOutcome struct {
	Point         string `json:"point"`
	Checker       string `json:"checker"`
	Kind          string `json:"kind"`
	ArmTick       int    `json:"arm_tick"`
	DurationTicks int    `json:"duration_ticks"`
	Detected      bool   `json:"detected"`
	// DetectTick/DetectLatencyNS are set on the first abnormal report from
	// the fault's checker while the fault (or its residue) was live.
	DetectTick      int   `json:"detect_tick,omitempty"`
	DetectLatencyNS int64 `json:"detect_latency_ns,omitempty"`
	// Site is the pinpoint of that first detecting report: a code site
	// (function/op@file:line) from a mimic checker, "signal:<indicator>" from
	// a signal checker, empty from a detector that cannot localize.
	Site string `json:"site,omitempty"`

	armedAt time.Time
}

// RecoveryStats summarizes the recovery manager's event log for the run.
type RecoveryStats struct {
	Recovered int `json:"recovered"`
	Retried   int `json:"retried"`
	Failed    int `json:"failed"`
	Escalated int `json:"escalated"`
	Unmatched int `json:"unmatched"`
	// SuccessRate is recovered / completed cycles (recovered + failed).
	SuccessRate   float64 `json:"success_rate"`
	DroppedEvents int64   `json:"dropped_events,omitempty"`
}

// Verdict is the machine-readable campaign outcome; CI consumes the JSON and
// gates on Pass.
type Verdict struct {
	Substrate  string         `json:"substrate"`
	Seed       int64          `json:"seed"`
	Ticks      int            `json:"ticks"`
	IntervalNS int64          `json:"interval_ns"`
	Faults     []FaultOutcome `json:"faults"`

	Detected      int     `json:"detected"`
	Missed        int     `json:"missed"`
	DetectionRate float64 `json:"detection_rate"`
	DetectP50NS   int64   `json:"detect_p50_ns"`
	DetectP95NS   int64   `json:"detect_p95_ns"`
	DetectMaxNS   int64   `json:"detect_max_ns"`

	// FalsePositives counts abnormal reports on checkers with no live fault
	// outside the storm and its grace tail; Collateral counts the same shape
	// inside them. FaultFreeTicks is how many ticks had nothing armed or
	// draining — the denominator context for the false-positive claim.
	FalsePositives       int      `json:"false_positives"`
	FalsePositiveDetails []string `json:"false_positive_details,omitempty"`
	Collateral           int      `json:"collateral_reports"`
	FaultFreeTicks       int      `json:"fault_free_ticks"`

	AlarmsRaised     int64 `json:"alarms_raised"`
	AlarmsSuppressed int64 `json:"alarms_suppressed"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerSkips     int64 `json:"breaker_skips"`
	BudgetSkips      int64 `json:"budget_skips"`
	LeakedHungMax    int   `json:"leaked_hung_max"`

	Recovery *RecoveryStats `json:"recovery,omitempty"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// verdict assembles and judges the final Verdict after the run loop.
func (r *runner) verdict(total int) *Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.tgt.Driver
	v := &Verdict{
		Substrate:        r.tgt.Name,
		Seed:             r.cfg.Seed,
		Ticks:            total,
		IntervalNS:       int64(r.cfg.Interval),
		FalsePositives:   r.fp,
		Collateral:       r.collateral,
		FaultFreeTicks:   r.faultFree,
		AlarmsRaised:     r.alarms,
		AlarmsSuppressed: d.AlarmsSuppressed(),
		BreakerTrips:     d.BreakerTrips(),
		BreakerSkips:     d.BreakerSkips(),
		BudgetSkips:      d.BudgetSkips(),
		LeakedHungMax:    r.leakedMax,
	}
	v.FalsePositiveDetails = append(v.FalsePositiveDetails, r.fpDetails...)

	var lats []int64
	for _, ev := range r.outcomes {
		v.Faults = append(v.Faults, *ev)
		if ev.Detected {
			v.Detected++
			lats = append(lats, ev.DetectLatencyNS)
		} else {
			v.Missed++
		}
	}
	if n := len(r.outcomes); n > 0 {
		v.DetectionRate = float64(v.Detected) / float64(n)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		v.DetectP50NS = lats[len(lats)/2]
		v.DetectP95NS = lats[(len(lats)*95)/100]
		v.DetectMaxNS = lats[len(lats)-1]
	}

	if m := r.tgt.Recovery; m != nil {
		rs := &RecoveryStats{DroppedEvents: m.DroppedEvents()}
		for _, e := range m.Events() {
			switch e.Kind {
			case recovery.EventRecovered:
				rs.Recovered++
			case recovery.EventRetried:
				rs.Retried++
			case recovery.EventFailed:
				rs.Failed++
			case recovery.EventEscalated:
				rs.Escalated++
			case recovery.EventUnmatched:
				rs.Unmatched++
			}
		}
		if done := rs.Recovered + rs.Failed; done > 0 {
			rs.SuccessRate = float64(rs.Recovered) / float64(done)
		}
		v.Recovery = rs
	}

	if v.FalsePositives > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d false positive(s) in fault-free phases", v.FalsePositives))
	}
	if len(r.outcomes) > 0 && v.DetectionRate < r.cfg.MinDetectionRate {
		v.Failures = append(v.Failures,
			fmt.Sprintf("detection rate %.2f below threshold %.2f", v.DetectionRate, r.cfg.MinDetectionRate))
	}
	if r.cfg.HangBudget > 0 && v.LeakedHungMax > r.cfg.HangBudget {
		v.Failures = append(v.Failures,
			fmt.Sprintf("leaked hung goroutines peaked at %d, budget %d", v.LeakedHungMax, r.cfg.HangBudget))
	}
	v.Pass = len(v.Failures) == 0
	return v
}

// JSON renders the verdict for CI consumption.
func (v *Verdict) JSON() ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Render formats the verdict for humans.
func (v *Verdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s seed=%d ticks=%d interval=%s\n",
		v.Substrate, v.Seed, v.Ticks, time.Duration(v.IntervalNS))
	fmt.Fprintf(&b, "  faults injected %d, detected %d, missed %d (rate %.2f)\n",
		len(v.Faults), v.Detected, v.Missed, v.DetectionRate)
	if v.Detected > 0 {
		fmt.Fprintf(&b, "  detection latency p50=%s p95=%s max=%s\n",
			time.Duration(v.DetectP50NS), time.Duration(v.DetectP95NS), time.Duration(v.DetectMaxNS))
	}
	fmt.Fprintf(&b, "  false positives %d (fault-free ticks %d), collateral %d\n",
		v.FalsePositives, v.FaultFreeTicks, v.Collateral)
	fmt.Fprintf(&b, "  alarms raised %d, suppressed %d; breaker trips %d, skips %d; budget skips %d; leaked hung max %d\n",
		v.AlarmsRaised, v.AlarmsSuppressed, v.BreakerTrips, v.BreakerSkips, v.BudgetSkips, v.LeakedHungMax)
	if v.Recovery != nil {
		fmt.Fprintf(&b, "  recovery recovered=%d retried=%d failed=%d escalated=%d unmatched=%d (success %.2f)\n",
			v.Recovery.Recovered, v.Recovery.Retried, v.Recovery.Failed,
			v.Recovery.Escalated, v.Recovery.Unmatched, v.Recovery.SuccessRate)
	}
	if v.Pass {
		b.WriteString("  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(v.Failures, "; "))
	}
	return b.String()
}
