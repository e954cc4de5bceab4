package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the two middle values for an
// even count), or 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs, or 0 for an empty slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tailLadder is the set of percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the figure is one outlier, not a tail.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 50 when none has.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// timing summarises one set of latency samples the way every timing in this
// benchmark is reported: median, highest supported percentile, sample count.
type timing struct {
	N     int
	P50   float64
	TailP float64 // which percentile Tail is
	Tail  float64
}

// summarize sorts samples in place and summarises them.
func summarize(samples []float64) timing {
	if len(samples) == 0 {
		return timing{TailP: 50}
	}
	sort.Float64s(samples)
	p := supportedTail(len(samples))
	return timing{N: len(samples), P50: percentile(samples, 50), TailP: p, Tail: percentile(samples, p)}
}

// blockMeans cuts vs into consecutive blocks of n and returns each block's
// mean, dropping an incomplete last block. Where work repeats with period n,
// every block holds one of each kind of step, so block means are samples of
// one distribution and single steps are not.
func blockMeans(vs []float64, n int) []float64 {
	out := make([]float64, 0, len(vs)/n)
	for i := 0; i+n <= len(vs); i += n {
		out = append(out, mean(vs[i:i+n]))
	}
	return out
}

// trimShare is the share of samples trimmedMean keeps.
const trimShare = 0.95

// trimmedMean is the mean of the fastest trimShare of sorted (ascending): the
// typical latency, without the stalls that a flush, a GC cycle or a noisy
// neighbour put into the slowest few samples. It is gated in place of the
// median because it integrates over the distribution: where requests come in
// two speeds (a get that runs at once against one queued behind a set's
// fsync), a median can sit on the edge between them and jump with the mix,
// while the mean over both moves only as much as the mix does.
func trimmedMean(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	keep := int(math.Ceil(trimShare * float64(len(sorted))))
	return mean(sorted[:keep])
}
