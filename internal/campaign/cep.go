package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdruntime"
)

// CEPConfig parameterizes one temporal-rule campaign (RunCEP).
type CEPConfig struct {
	// Seed picks the streak victim and the spread pair.
	Seed int64
	// Interval is the per-tick advance on the virtual clock (default 100ms).
	Interval time.Duration
}

// streakThreshold is the consecutive-abnormal count the streak rule arms
// with; spreadWindowTicks bounds the distinct rule's window in ticks. The
// phase lengths, in ticks:
const (
	streakThreshold   = 3
	spreadWindowTicks = 4

	// cepWarmupTicks run fault-free before the streak fault.
	cepWarmupTicks = 10
	// cepStreakTicks is how long the victim's error fault stays armed; the
	// consecutive rule needs streakThreshold abnormal reports.
	cepStreakTicks = 8
	// cepGapTicks separate the streak and spread phases so the spread rule's
	// window cannot absorb streak-phase hits.
	cepGapTicks = 6
	// cepSpreadTicks is how long both spread faults stay armed.
	cepSpreadTicks = 4
	// cepCooldownTicks run fault-free after the spread phase.
	cepCooldownTicks = 10
)

// CEPVerdict is the machine-readable temporal-rule campaign outcome; CI gates
// on Pass.
type CEPVerdict struct {
	Substrate  string `json:"substrate"`
	Seed       int64  `json:"seed"`
	IntervalNS int64  `json:"interval_ns"`
	Rules      int    `json:"rules"`

	// VictimChecker carries the seeded streak victim; SpreadCheckers the two
	// checkers faulted together for the distinct rule.
	VictimChecker  string   `json:"victim_checker"`
	SpreadCheckers []string `json:"spread_checkers"`

	// StreakDetected reports whether the consecutive-abnormal rule fired;
	// StreakLatencyNS is fire time minus the earliest contributing point
	// event — the window the rule had to look back across to decide.
	StreakDetected  bool  `json:"streak_detected"`
	StreakLatencyNS int64 `json:"streak_latency_ns,omitempty"`
	StreakCount     int   `json:"streak_count,omitempty"`

	// SpreadDetected reports whether the >=K-distinct-checkers rule fired;
	// SpreadLatencyNS measures the same earliest-contribution latency.
	SpreadDetected  bool  `json:"spread_detected"`
	SpreadLatencyNS int64 `json:"spread_latency_ns,omitempty"`

	// FiredTotal and RingDrops come from the faulted arm's engine snapshot.
	FiredTotal int64 `json:"fired_total"`
	RingDrops  int64 `json:"ring_drops"`

	// FaultFreeFirings counts rule firings in the fault-free control arm —
	// every one is a false positive.
	FaultFreeFirings int64 `json:"fault_free_firings"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// cepRules builds the campaign's rule set: a consecutive-abnormal streak rule
// pinned to the victim and a distinct-spread rule over all synth checkers.
// Both evaluate report events only, so synthesized alarms and recovery
// entries cannot feed back into the score.
func cepRules(victim string, interval time.Duration) []wdcep.Rule {
	window := spreadWindowTicks * interval
	return []wdcep.Rule{
		wdcep.Consecutive("cep-streak", streakThreshold).
			OnChecker(victim).
			OnKinds(wdcep.EventReport),
		wdcep.Distinct("cep-spread", 2, window).
			OnChecker("synth.").
			OnKinds(wdcep.EventReport).
			WithCooldown(100 * window),
	}
}

// RunCEP executes the seeded temporal-rule campaign on the synthetic
// substrate under a virtual clock, in two arms:
//
//  1. faulted — an error fault on the seeded victim long enough for the
//     consecutive rule, then (after a gap wider than the spread window) error
//     faults on the two other checkers together for the distinct rule
//  2. fault-free control — the identical stack and tick count with an empty
//     schedule; any firing is a false positive
//
// Detection latency is scored against the earliest contributing point event
// (Firing.First), i.e. how far back the fired rule's evidence starts.
func RunCEP(cfg CEPConfig) (*CEPVerdict, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	all := []FaultPoint{
		{Point: SynthPointAlpha, Checker: "synth.alpha"},
		{Point: SynthPointBeta, Checker: "synth.beta"},
		{Point: SynthPointGamma, Checker: "synth.gamma"},
	}
	vi := rng.Intn(len(all))
	victim := all[vi]
	spread := make([]FaultPoint, 0, len(all)-1)
	for i, p := range all {
		if i != vi {
			spread = append(spread, p)
		}
	}

	v := &CEPVerdict{
		Substrate:     "cep",
		Seed:          cfg.Seed,
		IntervalNS:    int64(cfg.Interval),
		VictimChecker: victim.Checker,
	}
	for _, p := range spread {
		v.SpreadCheckers = append(v.SpreadCheckers, p.Checker)
	}

	rules := cepRules(victim.Checker, cfg.Interval)
	v.Rules = len(rules)

	streakAt := cepWarmupTicks
	spreadAt := streakAt + cepStreakTicks + cepGapTicks
	stormTicks := cepStreakTicks + cepGapTicks + cepSpreadTicks + 2
	errFault := faultinject.Fault{Kind: faultinject.Error}
	script := []ScriptedFault{
		{Tick: streakAt, Point: victim.Point, Fault: errFault, DurationTicks: cepStreakTicks},
		{Tick: spreadAt, Point: spread[0].Point, Fault: errFault, DurationTicks: cepSpreadTicks},
		{Tick: spreadAt, Point: spread[1].Point, Fault: errFault, DurationTicks: cepSpreadTicks},
	}

	// runArm executes one arm and returns the engine state after the runtime
	// has fully drained (Close runs the engine's final evaluation pass).
	runArm := func(script []ScriptedFault) (*wdcep.Snapshot, []wdcep.Firing, error) {
		tgt := NewSynthTarget(clock.NewVirtual(),
			wdruntime.WithCEPRules(rules...),
			wdruntime.WithCEPEvalEvery(cfg.Interval),
		)
		_, err := Run(tgt, Config{
			Seed:          cfg.Seed,
			Interval:      cfg.Interval,
			WarmupTicks:   cepWarmupTicks,
			StormTicks:    stormTicks,
			CooldownTicks: cepCooldownTicks,
			Script:        script,
		})
		if cerr := tgt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		eng := tgt.Runtime.CEP()
		return eng.Snapshot(), eng.Firings(), nil
	}

	snap, firings, err := runArm(script)
	if err != nil {
		return nil, fmt.Errorf("campaign: cep faulted arm: %w", err)
	}
	v.FiredTotal = snap.Fired
	v.RingDrops = snap.Dropped
	for _, f := range firings {
		switch f.Rule {
		case "cep-streak":
			if !v.StreakDetected {
				v.StreakDetected = true
				v.StreakLatencyNS = int64(f.Time.Sub(f.First))
				v.StreakCount = f.Count
			}
		case "cep-spread":
			if !v.SpreadDetected {
				v.SpreadDetected = true
				v.SpreadLatencyNS = int64(f.Time.Sub(f.First))
			}
		}
	}

	// Control arm: same stack, same tick count, empty (non-nil) schedule.
	ffSnap, _, err := runArm([]ScriptedFault{})
	if err != nil {
		return nil, fmt.Errorf("campaign: cep fault-free arm: %w", err)
	}
	v.FaultFreeFirings = ffSnap.Fired
	v.RingDrops += ffSnap.Dropped

	if !v.StreakDetected {
		v.Failures = append(v.Failures,
			fmt.Sprintf("consecutive rule never fired on %s (%d abnormal ticks injected)",
				victim.Checker, cepStreakTicks))
	}
	if !v.SpreadDetected {
		v.Failures = append(v.Failures,
			"distinct-checkers rule never fired on the concurrent spread faults")
	}
	if v.StreakDetected && v.StreakLatencyNS <= 0 {
		v.Failures = append(v.Failures,
			"streak firing has non-positive earliest-contribution latency")
	}
	if v.RingDrops > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d event(s) dropped on a full engine ring", v.RingDrops))
	}
	if v.FaultFreeFirings > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d rule firing(s) in the fault-free control arm", v.FaultFreeFirings))
	}
	v.Pass = len(v.Failures) == 0
	return v, nil
}

// JSON renders the verdict for CI consumption.
func (v *CEPVerdict) JSON() ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Render formats the verdict for humans.
func (v *CEPVerdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign cep seed=%d interval=%s rules=%d\n",
		v.Seed, time.Duration(v.IntervalNS), v.Rules)
	fmt.Fprintf(&b, "  streak victim %s: detected %v", v.VictimChecker, v.StreakDetected)
	if v.StreakDetected {
		fmt.Fprintf(&b, " (count %d, latency-to-first-evidence %s)",
			v.StreakCount, time.Duration(v.StreakLatencyNS))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  spread pair %s: detected %v", strings.Join(v.SpreadCheckers, "+"), v.SpreadDetected)
	if v.SpreadDetected {
		fmt.Fprintf(&b, " (latency-to-first-evidence %s)", time.Duration(v.SpreadLatencyNS))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  fired %d, ring drops %d, fault-free firings %d\n",
		v.FiredTotal, v.RingDrops, v.FaultFreeFirings)
	if v.Pass {
		b.WriteString("  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(v.Failures, "; "))
	}
	return b.String()
}
