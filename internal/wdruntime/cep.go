package wdruntime

import (
	"errors"
	"fmt"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/recovery"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdobs"
)

// setupCEP builds and wires the temporal rule engine during New, after the
// observability layer exists (the engine feeds off the detection journal).
// The data path:
//
//	journal.Append ──tap──▶ engine ring ──Pump (on each report, on the
//	driver's clock)──▶ rule evaluation ──OnFire──▶ KindCEP journal entry +
//	Driver.InjectAlarm
//
// Synthesized alarms ride the same damping/recovery/mesh path as intrinsic
// ones, and the KindCEP journal entry re-enters the engine through the tap —
// rules ignore the cep kind unless they opt in, so there is no feedback loop
// by default.
func (rt *Runtime) setupCEP() error {
	rules := append([]wdcep.Rule(nil), rt.cfg.CEPRules...)
	if rt.cfg.CEPRulesFile != "" {
		loaded, err := wdcep.LoadRules(rt.cfg.CEPRulesFile)
		if err != nil {
			return fmt.Errorf("wdruntime: cep: %w", err)
		}
		rules = append(rules, loaded...)
	}
	if len(rules) == 0 {
		return nil
	}
	evalEvery := rt.cfg.CEPEvalEvery
	if evalEvery == 0 {
		// Evaluate at most once per check interval: the stream is driven by
		// checker reports, so finer granularity buys nothing.
		evalEvery = rt.cfg.Interval
	}
	eng, err := wdcep.NewEngine(wdcep.Config{
		Rules:       rules,
		EvalEvery:   evalEvery,
		GaugeSource: registryGaugeSource(rt.cfg.Registry),
		OnFire:      rt.onCEPFire,
	})
	if err != nil {
		return fmt.Errorf("wdruntime: cep: %w", err)
	}
	rt.cep = eng

	// The tap publishes into the engine's lock-free ring — non-blocking under
	// the journal lock, as SetTap requires.
	rt.obs.Journal().SetTap(func(e wdobs.Event) { eng.Publish(wdobs.CEPEvent(e)) })
	// Pump on every report, on the driver's clock so virtual-clock campaigns
	// evaluate deterministically. Pump itself gates on EvalEvery and uses
	// TryLock, so this listener stays cheap on the hot path.
	rt.driver.OnReport(func(watchdog.Report) { eng.Pump(rt.driver.Clock().Now()) })
	rt.obs.SetCEP(eng.Snapshot)
	return nil
}

// onCEPFire is the engine's OnFire hook: journal the firing as a KindCEP
// event, then synthesize an alarm through the driver so breakers, damping,
// recovery, and mesh gossip treat temporal detections uniformly with
// intrinsic ones. It runs under the engine lock; everything here is reentrant-
// safe with respect to it (the journal tap publishes lock-free, and the
// driver's alarm path never calls back into the engine's evaluation).
func (rt *Runtime) onCEPFire(f wdcep.Firing) {
	rep := watchdog.Report{
		Checker: "wdcep." + f.Rule,
		Status:  f.Status,
		Err:     errors.New(f.Detail),
		Time:    f.Time,
	}
	if rt.obs != nil {
		rt.obs.Journal().Append(wdobs.Event{
			Kind:        wdobs.KindCEP,
			Report:      rep,
			Consecutive: f.Count,
			Rule:        f.Rule,
		})
	}
	rt.driver.InjectAlarm(rep, f.Count)
}

// onRecoveryEvent journals recovery-manager outcomes as KindRecovery events,
// so escalations and retries land in the detection record (and the temporal
// rule stream) next to the alarms that drove them. Recovered outcomes carry
// healthy status — the repair succeeded — everything else carries error.
func (rt *Runtime) onRecoveryEvent(e recovery.Event) {
	status := watchdog.StatusError
	if e.Kind == recovery.EventRecovered {
		status = watchdog.StatusHealthy
	}
	rt.obs.Journal().Append(wdobs.Event{
		Kind: wdobs.KindRecovery,
		Report: watchdog.Report{
			Checker: e.Checker,
			Status:  status,
			Err:     e.Err,
			Time:    e.Time,
		},
		Outcome: e.Kind.String(),
		Action:  e.Action,
		Attempt: e.Attempt,
	})
}

// registryGaugeSource adapts a gauge.Registry into the engine's gauge lookup:
// gauges read their value, counters their running total, windows their mean.
// A nil registry resolves nothing, so gauge-gated rules never fire.
func registryGaugeSource(r *gauge.Registry) func(string) (float64, bool) {
	if r == nil {
		return nil
	}
	return func(name string) (float64, bool) {
		if g, ok := r.LookupGauge(name); ok {
			return g.Value(), true
		}
		if c, ok := r.LookupCounter(name); ok {
			return float64(c.Value()), true
		}
		if w, ok := r.LookupWindow(name); ok {
			return w.Mean(), true
		}
		return 0, false
	}
}
