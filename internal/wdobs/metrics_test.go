package wdobs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/watchdog"
)

// TestCounter pins what Obs counts with its gauge.Counter fields: every
// report, runs by resulting status (an out-of-range status counts as a
// report only), transitions between consecutive reports but not into the
// first, and alarms.
func TestCounter(t *testing.T) {
	o := New()
	rep := func(s watchdog.Status) watchdog.Report { return watchdog.Report{Checker: "c", Status: s} }
	o.ObserveReport(rep(watchdog.StatusHealthy), watchdog.StatusHealthy, true)
	o.ObserveReport(rep(watchdog.StatusHealthy), watchdog.StatusHealthy, false)
	o.ObserveReport(rep(watchdog.StatusError), watchdog.StatusHealthy, false)
	o.ObserveReport(rep(watchdog.StatusError), watchdog.StatusError, false)
	o.ObserveReport(rep(watchdog.Status(numStatuses)), watchdog.StatusError, false)
	o.ObserveAlarm(watchdog.Alarm{Report: rep(watchdog.StatusError), Consecutive: 2})

	if got := o.Snapshot().Reports; got != 5 {
		t.Errorf("Reports = %d, want 5", got)
	}
	if got := o.Snapshot().Alarms; got != 1 {
		t.Errorf("Alarms = %d, want 1", got)
	}
	cm := o.checker("c")
	var runs int64
	for s := range cm.runs {
		runs += cm.runs[s].Value()
	}
	if h, e := cm.runs[watchdog.StatusHealthy].Value(), cm.runs[watchdog.StatusError].Value(); h != 2 || e != 2 || runs != 4 {
		t.Errorf("runs healthy=%d error=%d total=%d, want 2, 2, 4", h, e, runs)
	}
	// healthy→error and error→out-of-range; the first report is no transition.
	if got := cm.transitions.Value(); got != 2 {
		t.Errorf("transitions = %d, want 2", got)
	}
}

// TestCounterConcurrent observes reports from many goroutines across a few
// checkers, so the per-checker counters are shared through the last-checker
// cache and the map: no increment may be lost.
func TestCounterConcurrent(t *testing.T) {
	o := New()
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("c%d", (w+i)%3)
				o.ObserveReport(watchdog.Report{Checker: name, Status: watchdog.StatusError},
					watchdog.StatusError, false)
			}
		}(w)
	}
	wg.Wait()
	if got := o.Snapshot().Reports; got != writers*perWriter {
		t.Fatalf("Reports = %d, want %d", got, writers*perWriter)
	}
	var runs int64
	for i := 0; i < 3; i++ {
		runs += o.checker(fmt.Sprintf("c%d", i)).runs[watchdog.StatusError].Value()
	}
	if runs != writers*perWriter {
		t.Fatalf("error runs across checkers = %d, want %d", runs, writers*perWriter)
	}
}

// TestGauge: /metrics reads the registry's gauge.Gauge live on every scrape,
// so a value set after New shows up, and the next scrape sees the update.
func TestGauge(t *testing.T) {
	reg := gauge.NewRegistry()
	o := New(WithRegistry(reg))
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	g := reg.Gauge("kvs.repl.queue")
	for _, v := range []float64{3.5, 0, 42} {
		g.Set(v)
		_, body := get(t, srv, "/metrics")
		want := fmt.Sprintf(`app_metric{name="kvs_repl_queue"} %g`, v)
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("after Set(%v): /metrics missing %q:\n%s", v, want, body)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Millisecond, 100*time.Millisecond)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(time.Second)            // overflow

	s := h.Snapshot()
	want := []int64{2, 1, 1, 1}
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], n)
		}
	}
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + 50*time.Millisecond + time.Second
	if s.Sum != wantSum {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if mean := s.Mean(); mean != wantSum/5 {
		t.Errorf("Mean = %v, want %v", mean, wantSum/5)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond)
	// 10 observations in the first bucket, 10 in the second.
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
		h.Observe(15 * time.Millisecond)
	}
	s := h.Snapshot()
	// p50 lands exactly at the first bucket's upper bound.
	if q := s.Quantile(0.50); q != 10*time.Millisecond {
		t.Errorf("p50 = %v, want 10ms", q)
	}
	// p75 is halfway through the second bucket (10ms..20ms).
	if q := s.Quantile(0.75); q != 15*time.Millisecond {
		t.Errorf("p75 = %v, want 15ms", q)
	}
	if q := s.Quantile(0); q != time.Duration(float64(10*time.Millisecond)*0.1) {
		t.Errorf("p0 = %v, want 1ms (rank 1 of 10 in first bucket)", q)
	}
}

func TestHistogramQuantileOverflowClips(t *testing.T) {
	h := NewHistogram(time.Millisecond)
	h.Observe(time.Hour)
	if q := h.Snapshot().Quantile(0.99); q != time.Millisecond {
		t.Errorf("overflow quantile = %v, want clip to 1ms", q)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	s := NewHistogram().Snapshot()
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("empty mean = %v, want 0", m)
	}
}

func TestNewHistogramRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewHistogram(time.Second, time.Millisecond)
}

// TestHistogramConcurrent exercises Observe against Snapshot/Quantile under
// the race detector (satellite: wdobs histogram concurrency test).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const writers = 8
	const perWriter = 2000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			_ = s.Quantile(0.99)
			_ = s.Mean()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perWriter)
	}
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d after quiescence", total, s.Count)
	}
}
