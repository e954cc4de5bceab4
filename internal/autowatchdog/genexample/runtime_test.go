// Runtime proof for AutoWatchdog's output: this package contains the
// COMMITTED generator output for testdata/sample (instrumented sample.go +
// sample_wd_gen.go, regenerate with:
//
//	go run ./cmd/awgen -pkg internal/autowatchdog/testdata/sample \
//	    -out internal/autowatchdog/genexample -quiet
//
// ) and these tests drive the instrumented main program and the generated
// checkers end to end: hooks fire on the real execution path, contexts
// become ready, the mimic checkers perform real shadow I/O, and injected
// environment faults surface through the generated sites.
package sample

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/autowatchdog/wdhooks"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

func setup(t *testing.T) (*Server, *watchdog.Driver, *wdio.FS) {
	t.Helper()
	factory := watchdog.NewFactory()
	wdhooks.SetFactory(factory)
	t.Cleanup(func() { wdhooks.SetFactory(nil) })

	srv, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := watchdog.New(watchdog.WithTimeout(time.Second), watchdog.WithFactory(factory))
	RegisterGeneratedCheckers(d, shadow)
	return srv, d, shadow
}

func TestGeneratedCheckersRegistered(t *testing.T) {
	_, d, _ := setup(t)
	names := d.Checkers()
	if len(names) != 2 {
		t.Fatalf("checkers = %v", names)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "sample.Server_") {
			t.Fatalf("unexpected checker name %q", n)
		}
	}
}

func TestGeneratedCheckersGatedUntilHooksFire(t *testing.T) {
	_, d, _ := setup(t)
	rep, err := d.CheckNow("sample.Server_Run")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != watchdog.StatusContextPending {
		t.Fatalf("pre-hook status = %v", rep.Status)
	}
}

func TestInstrumentedMainProgramFeedsGeneratedCheckers(t *testing.T) {
	srv, d, shadow := setup(t)

	// Drive the instrumented main program for real: Run consumes a batch
	// and ships it over a live TCP connection, executing the inserted
	// wdhooks.Capture calls along the way.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Run(conn) }()
	srv.queue <- []byte("first batch through the instrumented path")
	// Wait until the hook marked the context ready.
	deadline := time.Now().Add(2 * time.Second)
	ctx := d.Factory().Context("sample.Server_Run")
	for !ctx.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("instrumented hooks never fired")
		}
		time.Sleep(time.Millisecond)
	}
	close(srv.stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The hook captured the identifier argument of the vulnerable call.
	if got := ctx.GetBytes("arg0"); !strings.Contains(string(got), "first batch") {
		t.Fatalf("captured arg0 = %q", got)
	}
	if op := ctx.GetString("op"); op == "" {
		t.Fatal("hook did not record the op")
	}

	// The generated mimic checker now runs real shadow I/O and is healthy.
	rep, err := d.CheckNow("sample.Server_Run")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("generated checker = %v err=%v", rep.Status, rep.Err)
	}
	if n := shadowBytes(t, shadow); n != 0 {
		t.Fatalf("mimic left %d bytes in shadow", n)
	}
}

func TestGeneratedCheckerDetectsDiskFault(t *testing.T) {
	_, d, _ := setup(t)
	d.Factory().Context("sample.Server_FlushLoop").MarkReady()

	// Healthy first.
	rep, _ := d.CheckNow("sample.Server_FlushLoop")
	if rep.Status != watchdog.StatusHealthy {
		t.Fatalf("healthy run = %v err=%v", rep.Status, rep.Err)
	}

	// Environment fault: replace the shadow with a quota-starved one so the
	// generated disk mimic's real I/O fails.
	tiny, err := wdio.NewFS(filepath.Join(t.TempDir(), "tiny"), 1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := watchdog.New(watchdog.WithTimeout(time.Second))
	RegisterGeneratedCheckers(d2, tiny)
	d2.Factory().Context("sample.Server_FlushLoop").MarkReady()
	rep, _ = d2.CheckNow("sample.Server_FlushLoop")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("fault run = %v", rep.Status)
	}
	if rep.Site.Op != "os.ReadFile" || rep.Site.Function != "(*Server).FlushLoop" {
		t.Fatalf("pinpoint = %v", rep.Site)
	}
}

func TestInstrumentedProgramStillCorrect(t *testing.T) {
	// The instrumentation must not change program behaviour: persist writes
	// batches to the data log exactly as the original.
	srv, _, _ := setup(t)
	if err := srv.persist([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	out := srv.compress([]byte{1, 0, 2, 0, 3})
	if len(out) != 3 {
		t.Fatalf("compress = %v", out)
	}
	if got := Sum([]int{1, 2, 3}); got != 6 {
		t.Fatalf("Sum = %d", got)
	}
}

// shadowBytes sums the sizes of the files left under the shadow root.
func shadowBytes(t *testing.T, shadow *wdio.FS) int64 {
	t.Helper()
	root, err := shadow.Path(".")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	err = filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
