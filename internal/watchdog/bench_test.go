package watchdog

import (
	"testing"
)

func BenchmarkContextPutBytes(b *testing.B) {
	ctx := NewContext()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Put("payload", payload)
	}
}

func BenchmarkContextPutAll(b *testing.B) {
	ctx := NewContext()
	vals := map[string]any{"partition": 3, "path": "/data/p003/000001.sst"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.PutAll(vals)
	}
}

func BenchmarkOpWrapperHealthy(b *testing.B) {
	ctx := NewContext()
	site := Site{Function: "f", Op: "op"}
	body := func() error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Op(ctx, site, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckNowHealthy(b *testing.B) {
	d := New()
	d.Register(NewChecker("bench", func(*Context) error { return nil }))
	d.Factory().Context("bench").MarkReady()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CheckNow("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// noopObserver is the cheapest possible Observer; the delta between
// BenchmarkCheckNowHealthy and BenchmarkCheckNowObserved bounds the driver's
// observer-dispatch overhead (the wdobs package benchmarks the real sink).
type noopObserver struct{}

func (noopObserver) ObserveReport(Report, Status, bool) {}
func (noopObserver) ObserveAlarm(Alarm)                 {}

func BenchmarkCheckNowObserved(b *testing.B) {
	d := New()
	d.SetObserver(noopObserver{})
	d.Register(NewChecker("bench", func(*Context) error { return nil }))
	d.Factory().Context("bench").MarkReady()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.CheckNow("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplicateBytes(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Replicate(payload)
	}
}
