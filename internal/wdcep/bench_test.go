package wdcep

import (
	"testing"
	"time"

	"gowatchdog/internal/watchdog"
)

// ingestRig is the steady-state ingest workload: one event published per
// step against a representative rule set, with an evaluation pass pumped
// once per half-ring so the ring never overflows.
//
// The workload alternates a healthy report in between short abnormal bursts,
// exercising the trigger, reset, and streak paths without ever crossing a
// rule threshold — a firing allocates (it is rare by design) and would
// pollute the steady-state allocation measurement.
type ingestRig struct {
	eng       *Engine
	base      time.Time
	pumpEvery int
	n         int
}

func newIngestRig(tb testing.TB) *ingestRig {
	// Thresholds sit far above what the workload accumulates inside the
	// (short) windows, so the hot trigger/reset/streak paths all run but
	// nothing ever fires or overflows.
	rules := []Rule{
		Consecutive("bench-streak", 1_000_000).OnChecker("bench."),
		CountRule("bench-count", 4096, time.Millisecond),
		Distinct("bench-distinct", 4096, time.Millisecond).OnKinds(EventAlarm),
		Flap("bench-flap", 4096, time.Millisecond).OnChecker("bench.").WithHealthyFor(time.Minute),
	}
	eng, err := NewEngine(Config{Rules: rules})
	if err != nil {
		tb.Fatal(err)
	}
	return &ingestRig{
		eng:       eng,
		base:      time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		pumpEvery: eng.ring.cap() / 2,
	}
}

// step publishes the next event and pumps an evaluation at each half-ring.
func (r *ingestRig) step() {
	i := r.n
	r.n++
	ev := Event{
		Kind:    EventReport,
		Checker: "bench.checker",
		Status:  watchdog.StatusError,
		Time:    r.base.Add(time.Duration(i) * time.Microsecond),
	}
	if i%8 == 7 {
		ev.Status = watchdog.StatusHealthy
	}
	r.eng.Publish(ev)
	if i%r.pumpEvery == r.pumpEvery-1 {
		r.eng.Evaluate(ev.Time)
	}
}

// finish drains the ring and fails if the workload fired a rule or dropped
// an event, either of which means the rig no longer measures steady state.
func (r *ingestRig) finish(tb testing.TB) {
	r.eng.Drain(r.base.Add(time.Duration(r.n) * time.Microsecond))
	if got := r.eng.Fired(); got != 0 {
		tb.Fatalf("steady-state ingest fired %d rules; thresholds are miscalibrated", got)
	}
	if dropped := r.eng.RingDropped(); dropped != 0 {
		tb.Fatalf("steady-state ingest dropped %d events; pump cadence is miscalibrated", dropped)
	}
}

// TestEngineIngestZeroAlloc holds the journal tap's hot path to zero
// steady-state allocations. Each measured run ingests two full rings (four
// evaluation pumps); with a single run AllocsPerRun reports the exact count
// rather than a rounded-down average, so one stray allocation fails.
func TestEngineIngestZeroAlloc(t *testing.T) {
	rig := newIngestRig(t)
	events := 2 * rig.eng.ring.cap()
	allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < events; j++ {
			rig.step()
		}
	})
	rig.finish(t)
	if allocs != 0 {
		t.Fatalf("ingesting %d events allocated %v times, want 0", events, allocs)
	}
}

// BenchmarkEngineIngest measures the steady-state publish+evaluate path the
// journal tap rides on, in ns/event. The tracked number is benchmark/'s
// wdcep.ingest_ns_per_event, which times this path against wd_chain's rules.
func BenchmarkEngineIngest(b *testing.B) {
	rig := newIngestRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.step()
	}
	b.StopTimer()
	rig.finish(b)
}
