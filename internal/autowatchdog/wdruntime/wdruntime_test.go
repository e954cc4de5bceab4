package wdruntime

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

func newShadow(t *testing.T) *wdio.FS {
	t.Helper()
	fs, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func readyCtx() *watchdog.Context {
	c := watchdog.NewContext()
	c.MarkReady()
	return c
}

func TestDiskWriteMimicHealthy(t *testing.T) {
	shadow := newShadow(t)
	ctx := readyCtx()
	ctx.Put("wd.payload", []byte("captured payload"))
	site := watchdog.Site{Function: "f", Op: "f.Write", Line: 10}
	if err := MimicOp(ctx, shadow, site, DiskWrite); err != nil {
		t.Fatal(err)
	}
	// Probe files are cleaned up.
	if n := shadowBytes(t, shadow); n != 0 {
		t.Fatalf("shadow holds %d bytes after round trip", n)
	}
}

func TestDiskWriteMimicDefaultPayload(t *testing.T) {
	shadow := newShadow(t)
	site := watchdog.Site{Op: "os.WriteFile"}
	if err := MimicOp(readyCtx(), shadow, site, DiskWrite); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReadMimic(t *testing.T) {
	shadow := newShadow(t)
	site := watchdog.Site{Op: "os.ReadFile", Line: 3}
	if err := MimicOp(readyCtx(), shadow, site, DiskRead); err != nil {
		t.Fatal(err)
	}
}

func TestDiskMimicWithoutShadowFails(t *testing.T) {
	err := MimicOp(readyCtx(), nil, watchdog.Site{Op: "w"}, DiskWrite)
	if err == nil {
		t.Fatal("disk mimic without shadow succeeded")
	}
	var oe *watchdog.OpError
	if !asOpError(err, &oe) {
		t.Fatalf("error not an OpError: %v", err)
	}
}

func TestDiskWriteQuotaFaultDetected(t *testing.T) {
	fs, err := wdio.NewFS(filepath.Join(t.TempDir(), "shadow"), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := readyCtx()
	ctx.Put("wd.payload", []byte("definitely more than four bytes"))
	if err := MimicOp(ctx, fs, watchdog.Site{Op: "w"}, DiskWrite); err == nil {
		t.Fatal("quota-violating write mimic succeeded")
	}
}

func TestNetSendMimicSkipsWithoutAddr(t *testing.T) {
	// No captured address: the mimic is a no-op (the context has not proven
	// the main program talks to anyone).
	if err := MimicOp(readyCtx(), nil, watchdog.Site{Op: "conn.Write"}, NetSend); err != nil {
		t.Fatal(err)
	}
}

func TestNetSendMimicDialsCapturedAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	ctx := readyCtx()
	ctx.Put("wd.addr", ln.Addr().String())
	if err := MimicOp(ctx, nil, watchdog.Site{Op: "conn.Write"}, NetSend); err != nil {
		t.Fatal(err)
	}
	// Dead endpoint: the mimic fails with the site attached.
	ln.Close()
	ctx.Put("wd.addr", ln.Addr().String())
	if err := MimicOp(ctx, nil, watchdog.Site{Op: "conn.Write"}, NetSend); err == nil {
		t.Fatal("dial of dead endpoint succeeded")
	}
}

func TestSyncAndChanKindsAreRecordedNoops(t *testing.T) {
	ctx := readyCtx()
	for _, k := range []Kind{Sync, Chan, Generic} {
		if err := MimicOp(ctx, nil, watchdog.Site{Op: k.String()}, k); err != nil {
			t.Fatalf("%v mimic errored: %v", k, err)
		}
	}
	// The op's site is released once the mimic returns.
	if site, inOp := ctx.CurrentOp(); inOp {
		t.Fatalf("CurrentOp after the mimics = %v", site)
	}
}

func TestUnknownKindErrors(t *testing.T) {
	if err := MimicOp(readyCtx(), nil, watchdog.Site{}, Kind(99)); err == nil {
		t.Fatal("unknown kind succeeded")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		DiskWrite: "disk-write", DiskRead: "disk-read", NetSend: "net-send",
		NetRecv: "net-recv", Sync: "sync", Chan: "chan", Generic: "generic",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d) = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestProbeNameSanitized(t *testing.T) {
	name := probeName(watchdog.Site{Op: "conn.Write(hdr[:])", Line: 42})
	if strings.ContainsAny(name, "()[]:") {
		t.Fatalf("probe name not sanitized: %q", name)
	}
	if !strings.Contains(name, "42") {
		t.Fatalf("probe name missing line: %q", name)
	}
}

// asOpError is errors.As without importing errors twice in examples.
func asOpError(err error, target **watchdog.OpError) bool {
	for err != nil {
		if oe, ok := err.(*watchdog.OpError); ok {
			*target = oe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
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
