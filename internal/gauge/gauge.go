// Package gauge provides a small metric registry that main programs export
// and signal-style watchdog checkers read.
//
// The paper's signal checkers (§3.3, Table 2) monitor system health
// indicators: queue lengths, memory usage, load averages. Those indicators
// have to come from somewhere — this registry is the contract between the
// monitored program (which updates gauges and counters on its hot paths,
// cheaply) and the watchdog (which samples them on its own schedule).
package gauge

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	gauges   map[string]*Gauge
	counters map[string]*Counter
	windows  map[string]*Window
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges:   make(map[string]*Gauge),
		counters: make(map[string]*Counter),
		windows:  make(map[string]*Window),
	}
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Window returns the sliding window with the given name, creating it with the
// given capacity on first use. Capacity is ignored for an existing window.
func (r *Registry) Window(name string, capacity int) *Window {
	r.mu.RLock()
	w, ok := r.windows[name]
	r.mu.RUnlock()
	if ok {
		return w
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok = r.windows[name]; ok {
		return w
	}
	w = NewWindow(capacity)
	r.windows[name] = w
	return w
}

// LookupGauge returns the named gauge, or false if it was never created.
func (r *Registry) LookupGauge(name string) (*Gauge, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.gauges[name]
	return g, ok
}

// LookupCounter returns the named counter, or false if it was never created.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.counters[name]
	return c, ok
}

// LookupWindow returns the named window, or false if it was never created.
func (r *Registry) LookupWindow(name string) (*Window, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.windows[name]
	return w, ok
}

// Names returns the sorted names of all registered metrics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.gauges)+len(r.counters)+len(r.windows))
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.windows {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a point-in-time copy of every metric's primary value:
// gauges and counters report their current value, windows their mean.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := make(map[string]float64, len(r.gauges)+len(r.counters)+len(r.windows))
	for n, g := range r.gauges {
		snap[n] = g.Value()
	}
	for n, c := range r.counters {
		snap[n] = float64(c.Value())
	}
	for n, w := range r.windows {
		snap[n] = w.Mean()
	}
	return snap
}

// Gauge is a settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter is a monotonically increasing int64.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d, which must be non-negative.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("gauge: negative counter add %d", d))
	}
	c.n.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Window is a fixed-capacity sliding window of float64 observations with
// cheap summary statistics. It is used for latency and rate indicators.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
}

// NewWindow returns a window keeping the last capacity observations.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 64
	}
	return &Window{buf: make([]float64, capacity)}
}

// Observe records v, evicting the oldest observation when full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
	w.mu.Unlock()
}

// Len reports the number of live observations.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lenLocked()
}

func (w *Window) lenLocked() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of the live observations, or 0 when empty.
func (w *Window) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.lenLocked()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	return sum / float64(n)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the live observations
// using nearest-rank on a sorted copy, or 0 when empty.
func (w *Window) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("gauge: quantile %v out of range", q))
	}
	w.mu.Lock()
	n := w.lenLocked()
	tmp := make([]float64, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Float64s(tmp)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return tmp[idx]
}
