package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Virtual is a deterministic Clock driven manually by calls to Advance. It
// starts at an arbitrary but fixed epoch. Timers and tickers fire exactly
// when the virtual time passes their deadlines, in deadline order, with ties
// broken by creation order.
//
// Virtual is safe for concurrent use. Goroutines blocked in Sleep or on a
// timer channel are released during Advance.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     uint64
	sleeper *sync.Cond // broadcast whenever the waiter set changes
}

// NewVirtual returns a virtual clock starting at a fixed epoch
// (2020-01-01T00:00:00Z), chosen so timestamps in logs are recognizable.
func NewVirtual() *Virtual {
	v := &Virtual{now: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
	v.sleeper = sync.NewCond(&v.mu)
	return v
}

type waiter struct {
	deadline time.Time
	seq      uint64
	ch       chan time.Time
	period   time.Duration // >0 for tickers
	stopped  bool
	index    int // heap index, -1 when removed
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since returns the virtual time elapsed since t.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep blocks until the virtual clock has been advanced by at least d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// After returns a channel that receives the virtual time once the clock has
// advanced by d.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	w := v.addWaiterLocked(d, 0)
	return w.ch
}

// addWaiterLocked registers a waiter firing after d (period p for tickers).
// Deadlines in the past fire on the next Advance (even Advance(0)).
func (v *Virtual) addWaiterLocked(d, p time.Duration) *waiter {
	v.seq++
	w := &waiter{
		deadline: v.now.Add(d),
		seq:      v.seq,
		ch:       make(chan time.Time, 1),
		period:   p,
	}
	heap.Push(&v.waiters, w)
	v.sleeper.Broadcast()
	return w
}

// NewTimer returns a virtual timer firing after d.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	return &virtualTimer{v: v, w: v.addWaiterLocked(d, 0)}
}

// NewTicker returns a virtual ticker firing every d.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return &virtualTicker{v: v, w: v.addWaiterLocked(d, d)}
}

// Advance moves the virtual clock forward by d, firing every waiter whose
// deadline falls within the window, in deadline order. Tickers re-arm and may
// fire multiple times in one Advance.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: negative advance")
	}
	v.mu.Lock()
	target := v.now.Add(d)
	for len(v.waiters) > 0 && !v.waiters[0].deadline.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		if w.stopped {
			continue
		}
		// Virtual time stands at the waiter's deadline while it fires, so a
		// handler reading Now() sees a consistent timestamp.
		if w.deadline.After(v.now) {
			v.now = w.deadline
		}
		select {
		case w.ch <- v.now:
		default: // receiver hasn't drained the last tick; drop, like time.Ticker
		}
		if w.period > 0 {
			w.deadline = w.deadline.Add(w.period)
			heap.Push(&v.waiters, w)
		}
	}
	v.now = target
	v.mu.Unlock()
}

// Waiters reports how many timers, tickers and sleepers are currently
// registered. Tests use it (via BlockUntil) to know when the code under test
// has reached its next wait point.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, w := range v.waiters {
		if !w.stopped {
			n++
		}
	}
	return n
}

// BlockUntil blocks until at least n waiters are registered on the clock.
func (v *Virtual) BlockUntil(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		live := 0
		for _, w := range v.waiters {
			if !w.stopped {
				live++
			}
		}
		if live >= n {
			return
		}
		v.sleeper.Wait()
	}
}

type virtualTimer struct {
	v *Virtual
	w *waiter
}

func (t *virtualTimer) C() <-chan time.Time { return t.w.ch }

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	was := !t.w.stopped && t.w.index >= 0
	t.w.stopped = true
	return was
}

func (t *virtualTimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	was := !t.w.stopped && t.w.index >= 0
	t.w.stopped = true
	t.w = t.v.addWaiterLocked(d, 0)
	return was
}

type virtualTicker struct {
	v *Virtual
	w *waiter
}

func (t *virtualTicker) C() <-chan time.Time { return t.w.ch }

func (t *virtualTicker) Stop() {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.w.stopped = true
}
