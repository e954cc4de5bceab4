package gauge

import "math"

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max returns the maximum live observation, or 0 when empty.
func (w *Window) Max() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.lenLocked()
	if n == 0 {
		return 0
	}
	m := w.buf[0]
	for i := 1; i < n; i++ {
		if w.buf[i] > m {
			m = w.buf[i]
		}
	}
	return m
}

// Std returns the population standard deviation of the live observations,
// or 0 when fewer than two are present.
func (w *Window) Std() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.lenLocked()
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	mean := sum / float64(n)
	var sq float64
	for i := 0; i < n; i++ {
		d := w.buf[i] - mean
		sq += d * d
	}
	return math.Sqrt(sq / float64(n))
}
