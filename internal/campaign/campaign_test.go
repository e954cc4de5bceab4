package campaign

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

// TestSeededCampaignSelfHardening is the acceptance scenario for the whole
// self-hardening loop, fully deterministic on a virtual clock:
//
//   - a flapping fault (synth.alpha) raises identical alarms that the damping
//     gate collapses into one escaped alarm plus suppressed flaps;
//   - a hang (synth.beta) leaks exactly one checker goroutine — within the
//     budget of 2 — and its stuck streak trips the breaker;
//   - a crash-looping checker (synth.gamma, hard error every run) trips its
//     breaker within K=3 runs and is skipped until the backoff elapses;
//   - every escaped alarm drives a transiently-failing recovery action that
//     succeeds on retry without ever escalating;
//   - the warmup and cooldown fault-free phases record zero false positives.
func TestSeededCampaignSelfHardening(t *testing.T) {
	v := clock.NewVirtual()
	tgt := NewSynthTarget(v,
		wdruntime.WithBreaker(watchdog.BreakerConfig{
			Threshold: 3, BackoffBase: 20 * time.Second, JitterFrac: -1,
		}),
		wdruntime.WithAlarmDamping(30*time.Second),
		wdruntime.WithHangBudget(2),
		wdruntime.WithJitterSeed(7),
	)
	cfg := Config{
		Seed:          7,
		Interval:      time.Second,
		WarmupTicks:   5,
		StormTicks:    30,
		CooldownTicks: 15,
		GraceTicks:    8,
		HangBudget:    2,
		Script: []ScriptedFault{
			{Tick: 5, Point: SynthPointAlpha, Fault: faultinject.Fault{Kind: faultinject.Flap}, DurationTicks: 12},
			{Tick: 8, Point: SynthPointBeta, Fault: faultinject.Fault{Kind: faultinject.Hang}, DurationTicks: 10},
			{Tick: 20, Point: SynthPointGamma, Fault: faultinject.Fault{Kind: faultinject.Error}, DurationTicks: 6},
		},
	}

	verdict, err := Run(tgt, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if !verdict.Pass || len(verdict.Failures) != 0 {
		t.Fatalf("verdict failed: %v\n%s", verdict.Failures, verdict.Render())
	}
	if verdict.Detected != 3 || verdict.Missed != 0 || verdict.DetectionRate != 1.0 {
		t.Fatalf("detection = %d/%d rate %.2f, want 3/0 rate 1.00",
			verdict.Detected, verdict.Missed, verdict.DetectionRate)
	}
	if verdict.FalsePositives != 0 {
		t.Fatalf("false positives = %d: %v", verdict.FalsePositives, verdict.FalsePositiveDetails)
	}
	if verdict.FaultFreeTicks == 0 {
		t.Fatal("no fault-free ticks recorded")
	}

	// The hang leaked exactly one goroutine, within the budget of 2.
	if verdict.LeakedHungMax != 1 {
		t.Fatalf("leaked hung max = %d, want 1", verdict.LeakedHungMax)
	}

	// Breakers: beta's stuck streak and gamma's crash loop each tripped once;
	// alpha flapped healthy/error so its failure count kept resetting.
	if verdict.BreakerTrips != 2 {
		t.Fatalf("breaker trips = %d, want 2 (beta + gamma)", verdict.BreakerTrips)
	}
	if verdict.BreakerSkips == 0 {
		t.Fatal("open breakers produced no skips")
	}
	var gammaAbnormal int64
	for _, st := range tgt.Driver.State() {
		switch st.Name {
		case "synth.gamma":
			gammaAbnormal = st.Abnormal
			if st.BreakerTrips != 1 {
				t.Fatalf("gamma breaker trips = %d, want 1", st.BreakerTrips)
			}
		case "synth.alpha":
			if st.BreakerTrips != 0 {
				t.Fatalf("alpha (flapping) breaker trips = %d, want 0", st.BreakerTrips)
			}
			if st.Flaps != 5 {
				t.Fatalf("alpha damped-alarm count = %d, want 5", st.Flaps)
			}
		}
	}
	// "Trips within K runs": the crash-looping checker executed abnormally
	// exactly K=3 times before the breaker stopped scheduling it.
	if gammaAbnormal != 3 {
		t.Fatalf("gamma abnormal runs = %d, want 3 (breaker threshold)", gammaAbnormal)
	}

	// Alarm damping: alpha's 6 error bursts collapse to 1 escaped alarm, so
	// the campaign saw 3 escaped alarms total (one per fault) and 5 damped.
	if verdict.AlarmsRaised != 3 || verdict.AlarmsSuppressed != 5 {
		t.Fatalf("alarms raised=%d suppressed=%d, want 3/5",
			verdict.AlarmsRaised, verdict.AlarmsSuppressed)
	}

	// Recovery: each escaped alarm started a cycle whose action failed once
	// and succeeded on retry — no escalations, no terminal failures.
	rs := verdict.Recovery
	if rs == nil {
		t.Fatal("verdict missing recovery stats")
	}
	if rs.Recovered != 3 || rs.Retried != 3 || rs.Failed != 0 || rs.Escalated != 0 {
		t.Fatalf("recovery stats = %+v, want recovered=3 retried=3 failed=0 escalated=0", rs)
	}
	if rs.SuccessRate != 1.0 {
		t.Fatalf("recovery success rate = %.2f, want 1.00", rs.SuccessRate)
	}

	// The hang's detection latency is the checker timeout (3s); the error
	// and flap faults are caught on the very tick they arm.
	if verdict.DetectMaxNS != int64(3*time.Second) {
		t.Fatalf("max detection latency = %s, want 3s", time.Duration(verdict.DetectMaxNS))
	}
	if verdict.DetectP50NS != 0 {
		t.Fatalf("p50 detection latency = %s, want 0", time.Duration(verdict.DetectP50NS))
	}
}

// TestCampaignCorrelatedHangsRespectBudget: two simultaneous hangs against a
// hang budget of 1 — the first leaks its goroutine, the second is skipped by
// the budget gate (degrading detection, not the watchdog itself), and the
// leak stays exactly at the budget.
func TestCampaignCorrelatedHangsRespectBudget(t *testing.T) {
	v := clock.NewVirtual()
	tgt := NewSynthTarget(v, wdruntime.WithHangBudget(1))
	cfg := Config{
		Interval:         time.Second,
		WarmupTicks:      4,
		StormTicks:       16,
		CooldownTicks:    10,
		GraceTicks:       6,
		HangBudget:       1,
		MinDetectionRate: 0.5,
		Script: []ScriptedFault{
			{Tick: 6, Point: SynthPointAlpha, Fault: faultinject.Fault{Kind: faultinject.Hang}, DurationTicks: 8},
			{Tick: 6, Point: SynthPointBeta, Fault: faultinject.Fault{Kind: faultinject.Hang}, DurationTicks: 8},
		},
	}

	verdict, err := Run(tgt, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !verdict.Pass {
		t.Fatalf("verdict failed: %v\n%s", verdict.Failures, verdict.Render())
	}
	if verdict.LeakedHungMax != 1 {
		t.Fatalf("leaked hung max = %d, want exactly the budget (1)", verdict.LeakedHungMax)
	}
	if verdict.BudgetSkips == 0 {
		t.Fatal("budget gate never skipped a checker")
	}
	// Alpha (first in registration order) hangs and is detected; beta's
	// checker was budget-skipped the whole window, so its fault is the miss.
	if verdict.Detected != 1 || verdict.Missed != 1 {
		t.Fatalf("detection = %d/%d, want 1 detected 1 missed", verdict.Detected, verdict.Missed)
	}
	if verdict.FalsePositives != 0 {
		t.Fatalf("false positives = %d: %v", verdict.FalsePositives, verdict.FalsePositiveDetails)
	}
}

// TestGeneratedCampaignDeterministic: a fully generated (seeded) campaign on
// the virtual clock passes and reproduces tick-for-tick.
func TestGeneratedCampaignDeterministic(t *testing.T) {
	run := func() *Verdict {
		v := clock.NewVirtual()
		tgt := NewSynthTarget(v,
			wdruntime.WithBreaker(watchdog.BreakerConfig{
				Threshold: 3, BackoffBase: 10 * time.Second, JitterFrac: -1,
			}),
			wdruntime.WithAlarmDamping(20*time.Second),
			wdruntime.WithHangBudget(2),
		)
		verdict, err := Run(tgt, Config{
			Seed:          42,
			Interval:      time.Second,
			WarmupTicks:   5,
			StormTicks:    30,
			CooldownTicks: 15,
			GraceTicks:    8,
			HangBudget:    2,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return verdict
	}
	a, b := run(), run()
	if len(a.Faults) == 0 {
		t.Fatal("seed 42 generated no faults")
	}
	if a.FalsePositives != 0 {
		t.Fatalf("false positives = %d: %v", a.FalsePositives, a.FalsePositiveDetails)
	}
	if !a.Pass {
		t.Fatalf("generated campaign failed: %v\n%s", a.Failures, a.Render())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

// TestGenerateBounds: generated schedules stay inside the storm, respect the
// concurrency cap, and never overlap two faults on one checker.
func TestGenerateBounds(t *testing.T) {
	points := NewSynthTarget(clock.NewVirtual()).Points
	cfg := Config{WarmupTicks: 6, StormTicks: 50, CooldownTicks: 10, MaxConcurrent: 2}
	for seed := int64(0); seed < 20; seed++ {
		sched := Generate(seed, points, cfg)
		again := Generate(seed, points, cfg)
		if !reflect.DeepEqual(sched, again) {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		checkerOf := map[string]string{}
		for _, p := range points {
			checkerOf[p.Point] = p.Checker
		}
		for tick := 0; tick < 66; tick++ {
			active := 0
			byChecker := map[string]int{}
			for _, sf := range sched {
				if sf.Tick <= tick && tick < sf.Tick+sf.DurationTicks {
					active++
					byChecker[checkerOf[sf.Point]]++
					if sf.Tick < 6 || sf.Tick+sf.DurationTicks > 56 {
						t.Fatalf("seed %d: fault %+v escapes the storm window", seed, sf)
					}
				}
			}
			if active > 2 {
				t.Fatalf("seed %d tick %d: %d concurrent faults, cap 2", seed, tick, active)
			}
			for c, n := range byChecker {
				if n > 1 {
					t.Fatalf("seed %d tick %d: %d overlapping faults on checker %s", seed, tick, n, c)
				}
			}
		}
	}
}

// TestVerdictJSONRoundTrip pins the verdict wire format CI consumes.
func TestVerdictJSONRoundTrip(t *testing.T) {
	v := &Verdict{
		Substrate:     "synth",
		Seed:          7,
		Ticks:         50,
		IntervalNS:    int64(time.Second),
		Faults:        []FaultOutcome{{Point: "p", Checker: "c", Kind: "error", ArmTick: 5, DurationTicks: 4, Detected: true}},
		Detected:      1,
		DetectionRate: 1,
		Recovery:      &RecoveryStats{Recovered: 2, Retried: 1, SuccessRate: 1},
		Pass:          true,
	}
	data, err := v.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Verdict
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(v, &back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", v, &back)
	}
	for _, key := range []string{`"pass": true`, `"false_positives": 0`, `"detection_rate": 1`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("verdict JSON missing %q:\n%s", key, data)
		}
	}
}

// TestKVSCampaignSmoke drives the real kvs substrate for a few real-time
// ticks with one scripted WAL fault: the generated kvs.wal checker detects
// it, nothing else false-positives.
func TestKVSCampaignSmoke(t *testing.T) {
	tgt, err := NewKVSTarget(t.TempDir())
	if err != nil {
		t.Fatalf("NewKVSTarget: %v", err)
	}
	defer tgt.Close()
	verdict, err := Run(tgt, Config{
		Interval:      20 * time.Millisecond,
		WarmupTicks:   3,
		StormTicks:    10,
		CooldownTicks: 5,
		GraceTicks:    3,
		Script: []ScriptedFault{
			{Tick: 5, Point: "kvs.wal.append", Fault: faultinject.Fault{Kind: faultinject.Error}, DurationTicks: 4},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if verdict.Detected != 1 {
		t.Fatalf("kvs.wal fault undetected:\n%s", verdict.Render())
	}
	if verdict.FalsePositives != 0 {
		t.Fatalf("false positives on kvs: %v", verdict.FalsePositiveDetails)
	}
	if !verdict.Pass {
		t.Fatalf("verdict failed: %v", verdict.Failures)
	}
}

// TestStandingAlarmDetectsNothing: an alarm already running when a fault is
// armed is not credited with that fault, and is a false positive outside the
// storm. Once the checker has reported healthy, the next alarm while a fault
// is live detects it.
func TestStandingAlarmDetectsNothing(t *testing.T) {
	v := clock.NewVirtual()
	inj := faultinject.New(v)
	d := watchdog.New(watchdog.WithClock(v), watchdog.WithInterval(time.Second), watchdog.WithTimeout(3*time.Second))
	var stalled atomic.Bool
	d.Register(watchdog.NewChecker("indicator", func(*watchdog.Context) error {
		if stalled.Load() {
			return errors.New("stalled")
		}
		return inj.Fire("point")
	}), watchdog.WithContext(readyContext()))
	tgt := &Target{
		Name:     "standing",
		Driver:   d,
		Injector: inj,
		Points:   []FaultPoint{{Point: "point", Checker: "indicator", Kinds: []faultinject.Kind{faultinject.Error}}},
		// The indicator is stuck in alarm until tick 6.
		Step:  func(tick int) { stalled.Store(tick < 6) },
		Close: func() error { return nil },
	}
	fail := faultinject.Fault{Kind: faultinject.Error}
	verdict, err := Run(tgt, Config{
		Interval:         time.Second,
		WarmupTicks:      2,
		StormTicks:       10,
		CooldownTicks:    3,
		GraceTicks:       1,
		MinDetectionRate: 0.01,
		Script: []ScriptedFault{
			{Tick: 2, Point: "point", Fault: fail, DurationTicks: 2},
			{Tick: 8, Point: "point", Fault: fail, DurationTicks: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := verdict.Faults[0]; f.Detected {
		t.Errorf("fault armed during a standing alarm was detected at tick %d", f.DetectTick)
	}
	if f := verdict.Faults[1]; !f.Detected || f.DetectTick != 8 {
		t.Errorf("fault armed after the alarm cleared: detected=%v at tick %d, want tick 8", f.Detected, f.DetectTick)
	}
	if verdict.FalsePositives != 2 {
		t.Errorf("false positives = %d, want the 2 warmup ticks: %v", verdict.FalsePositives, verdict.FalsePositiveDetails)
	}
}
