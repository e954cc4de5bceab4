package main

import "testing"

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {76, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {3_000_000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1000..1, unsorted on purpose
	}
	got := summarize(samples)
	if got.N != 1000 || got.P50 != 500 || got.TailP != 99 || got.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", got)
	}
	if empty := summarize(nil); empty.N != 0 || empty.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", empty)
	}
}

func TestBlockMeans(t *testing.T) {
	got := blockMeans([]float64{1, 3, 5, 7, 100}, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Errorf("blockMeans = %v, want [2 6]", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	sorted[99] = 1e9 // one stall must not move it
	if got, want := trimmedMean(sorted), 48.0; got != want {
		t.Errorf("trimmedMean = %v, want %v (mean of 1..95)", got, want)
	}
	if trimmedMean(nil) != 0 {
		t.Error("trimmedMean(nil) != 0")
	}
}
