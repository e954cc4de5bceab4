package campaign

import (
	"math/rand"
	"time"

	"gowatchdog/internal/faultinject"
)

// ScriptedFault arms one fault at a tick and disarms it DurationTicks later.
type ScriptedFault struct {
	// Tick is the campaign tick at which the fault is armed.
	Tick int
	// Point names the injector fault point; it must appear in the target's
	// Points table so the runner can attribute detections.
	Point string
	// Fault is the manifestation to arm.
	Fault faultinject.Fault
	// DurationTicks is how many ticks the fault stays armed.
	DurationTicks int
}

// Schedule-shape constants for generated campaigns. Events are long enough
// that a hang (detected after the checker timeout, typically a few ticks)
// still overlaps several checking rounds.
const (
	minEventTicks = 4
	maxEventTicks = 10
	// maxConcurrent caps simultaneously armed faults.
	maxConcurrent = 2
	// eventProb is the per-tick probability of starting a new fault while
	// below the concurrency cap.
	eventProb = 0.3
	// correlProb is the probability that a hang drags a second point down
	// with it at the same tick — the correlated-failure shape (shared disk,
	// shared lock) that motivates the hang budget.
	correlProb = 0.35
)

// Generate derives a randomized fault schedule for the storm phase from seed.
// The same seed, points, and config produce the same schedule. Generated
// events never overlap on the same checker (the runner attributes detections
// per checker), never exceed maxConcurrent simultaneous faults, and all
// end inside the storm so the cooldown starts fault-free.
func Generate(seed int64, points []FaultPoint, cfg Config) []ScriptedFault {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	stormStart := cfg.WarmupTicks
	stormEnd := cfg.WarmupTicks + cfg.StormTicks

	var out []ScriptedFault
	// pointFree[i] / checkerFree[name] are the first tick at which the
	// point/checker may host a new fault (previous event plus one healthy
	// tick of separation).
	pointFree := make([]int, len(points))
	checkerFree := make(map[string]int, len(points))

	activeAt := func(t int) int {
		n := 0
		for _, sf := range out {
			if sf.Tick <= t && t < sf.Tick+sf.DurationTicks {
				n++
			}
		}
		return n
	}
	pick := func(t int) int {
		cands := make([]int, 0, len(points))
		for i, p := range points {
			if pointFree[i] <= t && checkerFree[p.Checker] <= t && len(p.Kinds) > 0 {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}
	arm := func(t, idx int, kind faultinject.Kind, dur int) {
		p := points[idx]
		if t+dur > stormEnd {
			dur = stormEnd - t
		}
		if dur < 2 {
			return
		}
		out = append(out, ScriptedFault{
			Tick: t, Point: p.Point, Fault: faultFor(kind, rng, cfg.Interval), DurationTicks: dur,
		})
		pointFree[idx] = t + dur + 2
		checkerFree[p.Checker] = t + dur + 2
	}

	for t := stormStart; t < stormEnd; t++ {
		if activeAt(t) >= maxConcurrent || rng.Float64() >= eventProb {
			continue
		}
		idx := pick(t)
		if idx < 0 {
			continue
		}
		kind := points[idx].Kinds[rng.Intn(len(points[idx].Kinds))]
		dur := minEventTicks + rng.Intn(maxEventTicks-minEventTicks+1)
		arm(t, idx, kind, dur)
		if kind == faultinject.Hang && activeAt(t) < maxConcurrent && rng.Float64() < correlProb {
			if other := pick(t); other >= 0 && hasKind(points[other].Kinds, faultinject.Hang) {
				arm(t, other, faultinject.Hang, dur)
			}
		}
	}
	return out
}

// faultFor builds the concrete Fault for a scheduled kind, drawing shape
// parameters (flap duty cycle, delay length) from rng.
func faultFor(kind faultinject.Kind, rng *rand.Rand, interval time.Duration) faultinject.Fault {
	f := faultinject.Fault{Kind: kind}
	switch kind {
	case faultinject.Flap:
		f.FlapOn = 1 + rng.Intn(2)
		f.FlapOff = 1 + rng.Intn(2)
	case faultinject.Delay:
		// Long enough to be abnormal, short enough not to read as a hang.
		f.Delay = interval/2 + time.Duration(rng.Int63n(int64(interval)))
	}
	return f
}

func hasKind(kinds []faultinject.Kind, k faultinject.Kind) bool {
	for _, c := range kinds {
		if c == k {
			return true
		}
	}
	return false
}
