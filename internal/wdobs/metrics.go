package wdobs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans checker latencies from microsecond in-memory
// checks through the multi-second liveness timeouts of the paper's §4.2
// configuration (1 s interval, 6 s timeout).
var DefaultLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram built entirely on atomics:
// Observe is three uncontended atomic adds plus a binary search over the
// bucket bounds, cheap enough for every checker execution (§3.2: watchdogs
// must not slow the program they watch). Scrapes read the same atomics
// without stopping writers, so a snapshot is monitoring-consistent rather
// than a point-in-time cut.
type Histogram struct {
	bounds  []time.Duration // ascending upper bounds
	buckets []atomic.Int64  // len(bounds)+1; last bucket is +Inf
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds, or DefaultLatencyBuckets when none are given.
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("wdobs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]time.Duration(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. The bucket search is an open-coded binary
// search: this runs on every checker execution and sort.Search's closure
// dispatch is measurable at that frequency.
func (h *Histogram) Observe(d time.Duration) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is a copied view of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Buckets has one extra entry for
	// observations above the last bound.
	Bounds  []time.Duration
	Buckets []int64
	// Count and Sum aggregate all observations.
	Count int64
	Sum   time.Duration
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the mean observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by nearest rank over the
// buckets with linear interpolation inside the landing bucket. Observations
// in the overflow bucket are attributed to the largest bound — quantiles are
// therefore clipped at Bounds[len-1].
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("wdobs: quantile %v out of range", q))
	}
	// Recompute the total from the copied buckets: Count was loaded at a
	// different instant and may exceed their sum mid-scrape.
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		if cum+n < rank {
			cum += n
			continue
		}
		if i == len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := float64(rank-cum) / float64(n)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}
