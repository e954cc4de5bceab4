// Package faultinject implements a named fault-point registry used to plant
// gray failures inside the target systems.
//
// The paper motivates watchdogs with failures that are not fail-stop:
// partial disk failures, limplock, fail-slow hardware, state corruption,
// deadlock and infinite loops (§1, §2). This package manufactures those
// manifestations deterministically. The monitored systems call Fire at
// instrumented sites (e.g. "kvs.flusher.write"); experiments Arm faults and
// measure how each detector reacts.
//
// When no fault is armed the fast path is a single atomic load, so the
// instrumentation does not perturb the overhead experiments (E6).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
)

// Kind enumerates the fault manifestations the injector can produce.
type Kind int

const (
	// None is the zero Kind; an armed fault must not use it.
	None Kind = iota
	// Delay makes the fault point sleep, modelling fail-slow / limplock.
	Delay
	// Error makes the fault point return an error, modelling an I/O fault.
	Error
	// Hang blocks the fault point until the fault is disarmed or released,
	// modelling deadlock and indefinite blocking.
	Hang
	// Corrupt flips bytes passed through FireData, modelling silent state
	// corruption.
	Corrupt
	// Panic panics at the fault point, modelling a crashing defect confined
	// to one goroutine.
	Panic
	// Leak retains memory on every firing, modelling a memory leak.
	Leak
	// Flap alternates deterministically between firing an error and passing
	// on a FlapOn/FlapOff cycle, modelling an intermittent fault (a link
	// that drops every other packet, a disk that fails in bursts). Campaigns
	// use it to exercise alarm damping and breaker half-open probes.
	Flap
	// Drop silently discards the message passing through a network fault
	// point (FireNet): the sender believes the send succeeded and the
	// receiver never hears it. Armed on one directional link point it models
	// a one-way partition; armed on every link of a node it black-holes it.
	Drop
	// Duplicate delivers the message passing through a network fault point
	// twice, modelling retransmission storms and at-least-once transports.
	// Receivers must deduplicate (the mesh does, by digest sequence number).
	Duplicate
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Hang:
		return "hang"
	case Corrupt:
		return "corrupt"
	case Panic:
		return "panic"
	case Leak:
		return "leak"
	case Flap:
		return "flap"
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the base error for Error faults that do not carry their own.
var ErrInjected = errors.New("faultinject: injected error")

// PanicValue is the value Panic faults panic with, wrapped with the point name.
type PanicValue struct{ Point string }

func (p PanicValue) String() string { return "injected panic at " + p.Point }

// Fault describes what should happen when an armed point fires.
type Fault struct {
	// Kind selects the manifestation; it must not be None.
	Kind Kind
	// Delay is the sleep duration for Delay faults.
	Delay time.Duration
	// Err overrides ErrInjected for Error faults.
	Err error
	// Prob is the firing probability in (0, 1]; 0 means 1 (always fire).
	Prob float64
	// Count limits how many times the fault fires; 0 means unlimited.
	Count int
	// LeakBytes is the number of bytes retained per firing for Leak faults
	// (default 1 MiB).
	LeakBytes int
	// FlapOn and FlapOff shape Flap faults: each cycle errors FlapOn
	// invocations, then passes FlapOff invocations. Zero values default
	// to 1, i.e. strict alternation. For Flap faults, Fired (and the Count
	// limit) counts invocations, not just errors, so the phase stays
	// deterministic.
	FlapOn  int
	FlapOff int
}

type armed struct {
	fault   Fault
	fired   atomic.Int64
	release chan struct{} // closed to free Hang victims
}

// Injector holds armed fault points. The zero value is not usable; call New.
type Injector struct {
	clk     clock.Clock
	any     atomic.Bool // fast-path: false means nothing armed anywhere
	mu      sync.RWMutex
	points  map[string]*armed
	rng     *rand.Rand
	rngMu   sync.Mutex
	leaked  [][]byte
	leakMu  sync.Mutex
	hanging atomic.Int64 // goroutines currently blocked in a Hang
}

// New returns an injector using clk for Delay faults.
func New(clk clock.Clock) *Injector {
	return &Injector{
		clk:    clk,
		points: make(map[string]*armed),
		rng:    rand.New(rand.NewSource(1)),
	}
}

// Seed reseeds the probability RNG for reproducible probabilistic faults.
func (in *Injector) Seed(seed int64) {
	in.rngMu.Lock()
	in.rng = rand.New(rand.NewSource(seed))
	in.rngMu.Unlock()
}

// Arm installs f at the named point, replacing any existing fault there.
func (in *Injector) Arm(point string, f Fault) {
	if f.Kind == None {
		panic("faultinject: arming Kind None")
	}
	in.mu.Lock()
	if old, ok := in.points[point]; ok {
		close(old.release)
	}
	in.points[point] = &armed{fault: f, release: make(chan struct{})}
	in.any.Store(true)
	in.mu.Unlock()
}

// Disarm removes the fault at point and releases any goroutines hanging there.
func (in *Injector) Disarm(point string) {
	in.mu.Lock()
	if a, ok := in.points[point]; ok {
		close(a.release)
		delete(in.points, point)
	}
	in.any.Store(len(in.points) > 0)
	in.mu.Unlock()
}

// Clear disarms every point, releases all hanging goroutines and frees leaked
// memory.
func (in *Injector) Clear() {
	in.mu.Lock()
	for p, a := range in.points {
		close(a.release)
		delete(in.points, p)
	}
	in.any.Store(false)
	in.mu.Unlock()
	in.leakMu.Lock()
	in.leaked = nil
	in.leakMu.Unlock()
}

// Fired reports how many times the fault at point has fired. It reports 0
// for unarmed points.
func (in *Injector) Fired(point string) int64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if a, ok := in.points[point]; ok {
		return a.fired.Load()
	}
	return 0
}

// Hanging reports how many goroutines are currently blocked in Hang faults.
func (in *Injector) Hanging() int64 { return in.hanging.Load() }

// Armed returns the sorted names of all armed points.
func (in *Injector) Armed() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.points))
	for p := range in.points {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// lookup returns the armed fault for point if it should fire now.
func (in *Injector) lookup(point string) *armed {
	if !in.any.Load() {
		return nil
	}
	in.mu.RLock()
	a, ok := in.points[point]
	in.mu.RUnlock()
	if !ok {
		return nil
	}
	f := a.fault
	if f.Count > 0 && a.fired.Load() >= int64(f.Count) {
		return nil
	}
	if p := f.Prob; p > 0 && p < 1 {
		in.rngMu.Lock()
		roll := in.rng.Float64()
		in.rngMu.Unlock()
		if roll >= p {
			return nil
		}
	}
	return a
}

// Fire triggers the fault at point, if one is armed. It returns the injected
// error for Error faults and nil otherwise. Hang faults block until the
// point is disarmed. Panic faults panic with a PanicValue.
func (in *Injector) Fire(point string) error {
	a := in.lookup(point)
	if a == nil {
		return nil
	}
	return in.fireArmed(point, a)
}

// FireData is Fire for sites with a data payload. Corrupt faults return a
// copy of data with deterministic bit flips; other kinds behave as in Fire
// and return data unchanged.
func (in *Injector) FireData(point string, data []byte) ([]byte, error) {
	a := in.lookup(point)
	if a == nil {
		return data, nil
	}
	if a.fault.Kind != Corrupt {
		return data, in.fireArmed(point, a)
	}
	a.fired.Add(1)
	if len(data) == 0 {
		return data, nil
	}
	out := make([]byte, len(data))
	copy(out, data)
	// Flip one bit in up to 3 positions spread across the payload.
	for i := 0; i < 3 && i < len(out); i++ {
		pos := (len(out) / 3) * i
		out[pos] ^= 0x40
	}
	return out, nil
}

// NetOutcome describes what an armed network fault does to one in-flight
// message. The zero value means "deliver normally".
type NetOutcome struct {
	// Drop means the message is silently lost in transit: the sender's write
	// appears to succeed and the receiver never sees the message.
	Drop bool
	// Duplicate means the message is delivered twice.
	Duplicate bool
	// Delay is how long delivery is deferred.
	Delay time.Duration
	// Err is returned to the sender (a visible transport error, unlike Drop).
	Err error
}

// FireNet triggers the network fault at a directional link point, if one is
// armed, and returns what should happen to the message. It understands the
// message-shaped kinds — Drop, Duplicate, Delay, Error, and Flap (which
// errors on its on-phase) — and treats every other kind as a clean delivery,
// so link points can share an injector with process-level fault points.
func (in *Injector) FireNet(point string) NetOutcome {
	a := in.lookup(point)
	if a == nil {
		return NetOutcome{}
	}
	seq := a.fired.Add(1) - 1 // this invocation's zero-based sequence
	switch a.fault.Kind {
	case Drop:
		return NetOutcome{Drop: true}
	case Duplicate:
		return NetOutcome{Duplicate: true}
	case Delay:
		return NetOutcome{Delay: a.fault.Delay}
	case Error:
		return NetOutcome{Err: in.pointErr(point, a)}
	case Flap:
		return NetOutcome{Err: in.flapErr(point, a, seq)}
	}
	return NetOutcome{}
}

// pointErr wraps the fault's error (or ErrInjected) with the point name.
func (in *Injector) pointErr(point string, a *armed) error {
	if a.fault.Err != nil {
		return fmt.Errorf("%s: %w", point, a.fault.Err)
	}
	return fmt.Errorf("%s: %w", point, ErrInjected)
}

// flapErr returns the point's error if invocation seq (zero-based, taken
// from the same atomic increment that counted it) falls in the on-phase of
// a's FlapOn/FlapOff cycle, and nil in the off-phase. Unset phase lengths
// default to 1.
func (in *Injector) flapErr(point string, a *armed, seq int64) error {
	on, off := int64(max(a.fault.FlapOn, 1)), int64(max(a.fault.FlapOff, 1))
	if seq%(on+off) < on {
		return in.pointErr(point, a)
	}
	return nil
}

// fireArmed applies a's manifestation. Corrupt is a no-op here: it only has
// an effect through FireData's payload path — and Drop/Duplicate likewise
// only act through FireNet's message path — so code paths without data or
// message flow can still share the point name harmlessly.
func (in *Injector) fireArmed(point string, a *armed) error {
	seq := a.fired.Add(1) - 1 // this invocation's zero-based sequence
	switch a.fault.Kind {
	case Delay:
		in.clk.Sleep(a.fault.Delay)
	case Error:
		return in.pointErr(point, a)
	case Hang:
		in.hanging.Add(1)
		<-a.release
		in.hanging.Add(-1)
	case Panic:
		panic(PanicValue{Point: point})
	case Flap:
		return in.flapErr(point, a, seq)
	case Leak:
		n := a.fault.LeakBytes
		if n <= 0 {
			n = 1 << 20
		}
		block := make([]byte, n)
		// Touch the memory so it is actually committed.
		for i := 0; i < len(block); i += 4096 {
			block[i] = 1
		}
		in.leakMu.Lock()
		in.leaked = append(in.leaked, block)
		in.leakMu.Unlock()
	}
	return nil
}
