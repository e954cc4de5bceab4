package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/clock"
)

func TestFireUnarmedIsNoop(t *testing.T) {
	in := New(clock.Real())
	if err := in.Fire("nope"); err != nil {
		t.Fatalf("unarmed Fire returned %v", err)
	}
	out, err := in.FireData("nope", []byte("abc"))
	if err != nil || string(out) != "abc" {
		t.Fatalf("unarmed FireData = %q, %v", out, err)
	}
}

func TestErrorFault(t *testing.T) {
	in := New(clock.Real())
	in.Arm("p", Fault{Kind: Error})
	err := in.Fire("p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	custom := errors.New("disk on fire")
	in.Arm("p", Fault{Kind: Error, Err: custom})
	if err := in.Fire("p"); !errors.Is(err, custom) {
		t.Fatalf("err = %v, want custom", err)
	}
}

func TestDelayFaultUsesClock(t *testing.T) {
	v := clock.NewVirtual()
	in := New(v)
	in.Arm("slow", Fault{Kind: Delay, Delay: 5 * time.Second})
	done := make(chan struct{})
	go func() {
		_ = in.Fire("slow")
		close(done)
	}()
	v.BlockUntil(1)
	select {
	case <-done:
		t.Fatal("Delay fault returned before clock advance")
	default:
	}
	v.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Delay fault did not return after advance")
	}
}

func TestHangFaultBlocksUntilDisarm(t *testing.T) {
	in := New(clock.Real())
	in.Arm("stuck", Fault{Kind: Hang})
	done := make(chan struct{})
	go func() {
		_ = in.Fire("stuck")
		close(done)
	}()
	// Wait for the goroutine to be hanging.
	deadline := time.Now().Add(time.Second)
	for in.Hanging() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("goroutine never hung")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("Hang fault returned while armed")
	default:
	}
	in.Disarm("stuck")
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Hang fault did not release on Disarm")
	}
	if in.Hanging() != 0 {
		t.Fatalf("Hanging = %d after release", in.Hanging())
	}
}

func TestClearReleasesAllHangs(t *testing.T) {
	in := New(clock.Real())
	in.Arm("a", Fault{Kind: Hang})
	in.Arm("b", Fault{Kind: Hang})
	var wg sync.WaitGroup
	for _, p := range []string{"a", "b", "a"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			_ = in.Fire(p)
		}(p)
	}
	deadline := time.Now().Add(time.Second)
	for in.Hanging() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("Hanging = %d, want 3", in.Hanging())
		}
		time.Sleep(time.Millisecond)
	}
	in.Clear()
	wg.Wait()
	if len(in.Armed()) != 0 {
		t.Fatalf("Armed after Clear = %v", in.Armed())
	}
}

func TestPanicFault(t *testing.T) {
	in := New(clock.Real())
	in.Arm("boom", Fault{Kind: Panic})
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Point != "boom" {
			t.Fatalf("recovered %v, want PanicValue{boom}", r)
		}
	}()
	_ = in.Fire("boom")
	t.Fatal("Panic fault did not panic")
}

func TestCorruptFaultFlipsBits(t *testing.T) {
	in := New(clock.Real())
	in.Arm("data", Fault{Kind: Corrupt})
	orig := []byte("hello, world, this is a payload")
	out, err := in.FireData("data", orig)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) == string(orig) {
		t.Fatal("Corrupt fault did not change payload")
	}
	if string(orig) != "hello, world, this is a payload" {
		t.Fatal("Corrupt fault mutated the caller's buffer")
	}
	if len(out) != len(orig) {
		t.Fatal("Corrupt fault changed payload length")
	}
	// Plain Fire on a Corrupt point is harmless.
	if err := in.Fire("data"); err != nil {
		t.Fatalf("Fire on Corrupt point = %v", err)
	}
}

func TestCorruptEmptyPayload(t *testing.T) {
	in := New(clock.Real())
	in.Arm("data", Fault{Kind: Corrupt})
	out, err := in.FireData("data", nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("FireData(nil) = %v, %v", out, err)
	}
}

func TestCountLimitsFirings(t *testing.T) {
	in := New(clock.Real())
	in.Arm("p", Fault{Kind: Error, Count: 2})
	errs := 0
	for i := 0; i < 5; i++ {
		if in.Fire("p") != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("fired %d times, want 2", errs)
	}
	if in.Fired("p") != 2 {
		t.Fatalf("Fired = %d, want 2", in.Fired("p"))
	}
}

func TestProbabilisticFiring(t *testing.T) {
	in := New(clock.Real())
	in.Seed(42)
	in.Arm("p", Fault{Kind: Error, Prob: 0.5})
	errs := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if in.Fire("p") != nil {
			errs++
		}
	}
	if errs < n/3 || errs > 2*n/3 {
		t.Fatalf("prob 0.5 fired %d/%d times", errs, n)
	}
}

func TestArmNonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Arm(None) did not panic")
		}
	}()
	New(clock.Real()).Arm("p", Fault{})
}

func TestArmedNamesSorted(t *testing.T) {
	in := New(clock.Real())
	in.Arm("z", Fault{Kind: Error})
	in.Arm("a", Fault{Kind: Error})
	got := in.Armed()
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Fatalf("Armed = %v", got)
	}
}

func TestRearmReleasesPreviousHang(t *testing.T) {
	in := New(clock.Real())
	in.Arm("p", Fault{Kind: Hang})
	done := make(chan struct{})
	go func() {
		_ = in.Fire("p")
		close(done)
	}()
	deadline := time.Now().Add(time.Second)
	for in.Hanging() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never hung")
		}
		time.Sleep(time.Millisecond)
	}
	in.Arm("p", Fault{Kind: Error}) // re-arm releases the old hang
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("re-arm did not release hanging goroutine")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		None: "none", Delay: "delay", Error: "error", Hang: "hang",
		Corrupt: "corrupt", Panic: "panic", Flap: "flap", Drop: "drop",
		Duplicate: "duplicate", Kind(99): "Kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestFireDataNonCorruptPassesThrough(t *testing.T) {
	in := New(clock.Real())
	in.Arm("p", Fault{Kind: Error})
	out, err := in.FireData("p", []byte("xyz"))
	if err == nil {
		t.Fatal("Error fault via FireData returned nil error")
	}
	if string(out) != "xyz" {
		t.Fatalf("payload changed: %q", out)
	}
}

// TestFlapConcurrent: concurrent Fires through a flapping point must be
// race-free and keep the on/off accounting exact — with FlapOn=1/FlapOff=1
// every other global invocation errors, so the totals split exactly in half
// regardless of goroutine interleaving. Run with -race.
func TestFlapConcurrent(t *testing.T) {
	inj := New(clock.Real())
	inj.Arm("flappy", Fault{Kind: Flap})

	const goroutines, fires = 8, 100
	var failed, passed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fires; i++ {
				if err := inj.Fire("flappy"); err != nil {
					failed.Add(1)
				} else {
					passed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	total := int64(goroutines * fires)
	if failed.Load()+passed.Load() != total {
		t.Fatalf("accounting lost fires: %d failed + %d passed != %d",
			failed.Load(), passed.Load(), total)
	}
	if failed.Load() != total/2 {
		t.Fatalf("strict alternation failed %d of %d fires, want exactly half", failed.Load(), total)
	}

	// The same alternation must hold through the message-shaped path.
	inj.Arm("flappy.net", Fault{Kind: Flap, FlapOn: 2, FlapOff: 2})
	var netErrs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fires; i++ {
				if out := inj.FireNet("flappy.net"); out.Err != nil {
					netErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if netErrs.Load() != total/2 {
		t.Fatalf("FireNet flap errored %d of %d fires, want exactly half", netErrs.Load(), total)
	}
}
