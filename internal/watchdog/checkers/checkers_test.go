package checkers

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"gowatchdog/internal/gauge"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

func runOnce(t *testing.T, c watchdog.Checker) watchdog.Report {
	t.Helper()
	d := watchdog.New()
	d.Register(c, watchdog.WithContext(ProbeContext()))
	rep, err := d.CheckNow(c.Name())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestProbeHealthyAndFailing(t *testing.T) {
	ok := Probe("probe-ok", func() error { return nil })
	if rep := runOnce(t, ok); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("status = %v", rep.Status)
	}
	bad := Probe("probe-bad", func() error { return errors.New("SET failed") })
	rep := runOnce(t, bad)
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	// Probe checkers cannot pinpoint: no site.
	if !rep.Site.IsZero() {
		t.Fatalf("probe checker reported a site: %v", rep.Site)
	}
}

func TestHeapLimit(t *testing.T) {
	// An absurdly high limit never fires; a zero limit always fires.
	if rep := runOnce(t, HeapLimit("heap-hi", 1<<62)); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("high limit fired: %v", rep)
	}
	rep := runOnce(t, HeapLimit("heap-lo", 0))
	if rep.Status != watchdog.StatusError {
		t.Fatalf("zero limit did not fire: %v", rep)
	}
	var se *SignalError
	if !errors.As(rep.Err, &se) || se.Indicator != "heap-bytes" {
		t.Fatalf("err = %v", rep.Err)
	}
}

func TestGoroutineLimit(t *testing.T) {
	if rep := runOnce(t, GoroutineLimit("g-hi", 1<<30)); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("high limit fired: %v", rep)
	}
	if rep := runOnce(t, GoroutineLimit("g-lo", 0)); rep.Status != watchdog.StatusError {
		t.Fatalf("zero limit did not fire: %v", rep)
	}
}

func TestSchedulerDelayDetectsPause(t *testing.T) {
	// Simulated clocks: the sleeper "sleeps" 10ms but 500ms elapse — a long
	// GC pause. now() advances by 500ms per call pair.
	fake := time.Unix(0, 0)
	now := func() time.Time { return fake }
	sleeper := func(time.Duration) { fake = fake.Add(500 * time.Millisecond) }
	c := SchedulerDelay("sched", 10*time.Millisecond, 100*time.Millisecond, sleeper, now)
	rep := runOnce(t, c)
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	var se *SignalError
	if !errors.As(rep.Err, &se) || se.Indicator != "sched-delay" {
		t.Fatalf("err = %v", rep.Err)
	}
}

func TestSchedulerDelayHealthyUnderNormalScheduling(t *testing.T) {
	fake := time.Unix(0, 0)
	now := func() time.Time { return fake }
	sleeper := func(d time.Duration) { fake = fake.Add(d) } // exact sleep
	c := SchedulerDelay("sched-ok", 10*time.Millisecond, 50*time.Millisecond, sleeper, now)
	if rep := runOnce(t, c); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("status = %v", rep.Status)
	}
}

func TestSchedulerDelayRealClockDefaultsHealthy(t *testing.T) {
	c := SchedulerDelay("sched-real", time.Millisecond, 5*time.Second, nil, nil)
	if rep := runOnce(t, c); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("real scheduler reported %v", rep)
	}
}

func TestGaugeAboveBelow(t *testing.T) {
	r := gauge.NewRegistry()
	g := r.Gauge("queue.len")
	g.Set(5)
	above := GaugeAbove("q-above", "queue-len", g, 10)
	if rep := runOnce(t, above); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("above fired at 5/10: %v", rep)
	}
	g.Set(11)
	if rep := runOnce(t, above); rep.Status != watchdog.StatusError {
		t.Fatalf("above did not fire at 11/10: %v", rep)
	}

	free := r.Gauge("disk.free")
	free.Set(100)
	below := GaugeBelow("d-below", "disk-free", free, 50)
	if rep := runOnce(t, below); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("below fired at 100/50: %v", rep)
	}
	free.Set(10)
	if rep := runOnce(t, below); rep.Status != watchdog.StatusError {
		t.Fatalf("below did not fire at 10/50: %v", rep)
	}
}

func TestCounterStalled(t *testing.T) {
	r := gauge.NewRegistry()
	c := r.Counter("flushes")
	chk := CounterStalled("progress", "flush-progress", c)
	d := watchdog.New()
	d.Register(chk, watchdog.WithContext(ProbeContext()))
	// First run seeds; never abnormal.
	if rep, _ := d.CheckNow("progress"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("seed run = %v", rep.Status)
	}
	// No progress since seed -> stalled.
	if rep, _ := d.CheckNow("progress"); rep.Status != watchdog.StatusError {
		t.Fatalf("stalled run = %v", rep.Status)
	}
	// Progress resumes -> healthy.
	c.Inc()
	if rep, _ := d.CheckNow("progress"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("progressing run = %v", rep.Status)
	}
}

func TestCounterRising(t *testing.T) {
	r := gauge.NewRegistry()
	c := r.Counter("errors")
	chk := CounterRising("errs", "error-rate", c)
	d := watchdog.New()
	d.Register(chk, watchdog.WithContext(ProbeContext()))
	// Seed run, flat counter: healthy.
	if rep, _ := d.CheckNow("errs"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("seed = %v", rep.Status)
	}
	if rep, _ := d.CheckNow("errs"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("flat = %v", rep.Status)
	}
	// Rising counter: error.
	c.Add(3)
	rep, _ := d.CheckNow("errs")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("rising = %v", rep.Status)
	}
	// Back to flat: healthy again.
	if rep, _ := d.CheckNow("errs"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("flat again = %v", rep.Status)
	}
}

func TestWindowQuantileAbove(t *testing.T) {
	w := gauge.NewWindow(16)
	for i := 0; i < 10; i++ {
		w.Observe(1)
	}
	c := WindowQuantileAbove("lat", "latency-p99", w, 0.99, 5)
	if rep := runOnce(t, c); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("fired on low latency: %v", rep)
	}
	for i := 0; i < 10; i++ {
		w.Observe(100)
	}
	if rep := runOnce(t, c); rep.Status != watchdog.StatusError {
		t.Fatalf("did not fire on high latency: %v", rep)
	}
}

func TestMimicPinpoints(t *testing.T) {
	site := watchdog.Site{Function: "kvs.(*Flusher).flushOnce", Op: "wal.Append", File: "flush.go", Line: 33}
	c := watchdog.NewChecker("mimic-flush", func(ctx *watchdog.Context) error {
		return watchdog.Op(ctx, site, func() error { return errors.New("EIO") })
	})
	d := watchdog.New()
	ctx := watchdog.NewContext()
	ctx.Put("last-batch", []byte("k=v"))
	d.Register(c, watchdog.WithContext(ctx))
	rep, _ := d.CheckNow("mimic-flush")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	if rep.Site != site {
		t.Fatalf("site = %v, want %v", rep.Site, site)
	}
	if string(rep.Payload["last-batch"].([]byte)) != "k=v" {
		t.Fatalf("payload missing failure-inducing context: %v", rep.Payload)
	}
}

func TestDiskRoundTripHealthy(t *testing.T) {
	fs, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	site := watchdog.Site{Function: "dfs.(*Volume).writeBlock", Op: "os.WriteFile"}
	c := DiskRoundTrip("disk", fs, site, "last-block")
	d := watchdog.New()
	ctx := watchdog.NewContext()
	ctx.Put("last-block", []byte("block payload"))
	d.Register(c, watchdog.WithContext(ctx))
	rep, _ := d.CheckNow("disk")
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("status = %v err = %v", rep.Status, rep.Err)
	}
}

func TestDiskRoundTripDefaultPayload(t *testing.T) {
	fs, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := DiskRoundTrip("disk2", fs, watchdog.Site{Op: "os.WriteFile"}, "missing-key")
	d := watchdog.New()
	d.Register(c, watchdog.WithContext(ProbeContext()))
	rep, _ := d.CheckNow("disk2")
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("status = %v err = %v", rep.Status, rep.Err)
	}
}

func TestDiskRoundTripQuotaFaultDetected(t *testing.T) {
	fs, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 4) // 4-byte quota
	if err != nil {
		t.Fatal(err)
	}
	site := watchdog.Site{Op: "os.WriteFile"}
	c := DiskRoundTrip("disk3", fs, site, "k")
	d := watchdog.New()
	ctx := watchdog.NewContext()
	ctx.Put("k", []byte("way more than four bytes"))
	d.Register(c, watchdog.WithContext(ctx))
	rep, _ := d.CheckNow("disk3")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("status = %v", rep.Status)
	}
	if rep.Site != site {
		t.Fatalf("site = %v", rep.Site)
	}
}
