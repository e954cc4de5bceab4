package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

func newNode(t *testing.T, volumes int, factory *watchdog.Factory) *DataNode {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, volumes)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("vol%d", i))
	}
	dn, err := New(Config{VolumeDirs: dirs, WatchdogFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	return dn
}

func TestWriteReadDeleteBlock(t *testing.T) {
	dn := newNode(t, 2, nil)
	id, err := dn.WriteBlock([]byte("block data"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dn.ReadBlock(id)
	if err != nil || string(got) != "block data" {
		t.Fatalf("ReadBlock = %q, %v", got, err)
	}
	if dn.BlockCount() != 1 {
		t.Fatalf("BlockCount = %d", dn.BlockCount())
	}
	if err := dn.DeleteBlock(id); err != nil {
		t.Fatal(err)
	}
	if _, err := dn.ReadBlock(id); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("read after delete: %v", err)
	}
	if err := dn.DeleteBlock(id); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestBlocksSpreadAcrossVolumes(t *testing.T) {
	dn := newNode(t, 3, nil)
	for i := 0; i < 9; i++ {
		if _, err := dn.WriteBlock([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		entries, err := os.ReadDir(dn.VolumeDir(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("volume %d has %d blocks, want 3", i, len(entries))
		}
	}
}

func TestReadDetectsCorruptBlock(t *testing.T) {
	dn := newNode(t, 1, nil)
	id, _ := dn.WriteBlock([]byte("important"))
	path, ok := dn.BlockPath(id)
	if !ok {
		t.Fatal("BlockPath")
	}
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := dn.ReadBlock(id); !errors.Is(err, ErrBlockCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanBlocksFindsCorruption(t *testing.T) {
	dn := newNode(t, 2, nil)
	var ids []uint64
	for i := 0; i < 6; i++ {
		id, _ := dn.WriteBlock([]byte(fmt.Sprintf("block %d", i)))
		ids = append(ids, id)
	}
	corrupt, err := dn.ScanBlocks()
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("clean scan = %v, %v", corrupt, err)
	}
	path, _ := dn.BlockPath(ids[2])
	data, _ := os.ReadFile(path)
	data[5] ^= 0x01
	os.WriteFile(path, data, 0o644)
	corrupt, err = dn.ScanBlocks()
	if err != nil || len(corrupt) != 1 || corrupt[0] != ids[2] {
		t.Fatalf("scan = %v, %v", corrupt, err)
	}
}

func TestPartialVolumeFaultOnlyAffectsThatVolume(t *testing.T) {
	dn := newNode(t, 2, nil)
	dn.Injector().Arm(FaultVolumeWritePrefix+"0", faultinject.Fault{Kind: faultinject.Error})
	okWrites, badWrites := 0, 0
	for i := 0; i < 10; i++ {
		if _, err := dn.WriteBlock([]byte("x")); err != nil {
			badWrites++
		} else {
			okWrites++
		}
	}
	// Round-robin placement: half land on the failed volume.
	if okWrites != 5 || badWrites != 5 {
		t.Fatalf("ok=%d bad=%d, want 5/5", okWrites, badWrites)
	}
}

func TestPermissionsCheckerMissesIOFault(t *testing.T) {
	// The v1 checker passes while volume 0 fails or blocks all real I/O —
	// the paper's motivating inadequacy (E8).
	for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Hang} {
		t.Run(kind.String(), func(t *testing.T) {
			dn := newNode(t, 2, nil)
			dn.Injector().Arm(FaultVolumeWritePrefix+"0", faultinject.Fault{Kind: kind})
			defer dn.Injector().Clear()
			d := watchdog.New()
			dn.InstallWatchdog(d)
			rep, err := d.CheckNow("dfs.disk.v1")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Status != watchdog.StatusHealthy {
				t.Fatalf("v1 checker = %v, expected (wrongly) healthy", rep.Status)
			}
		})
	}
}

func TestMimicDiskCheckerCatchesIOFault(t *testing.T) {
	factory := watchdog.NewFactory()
	dn := newNode(t, 2, factory)
	dn.Injector().Arm(FaultVolumeWritePrefix+"0", faultinject.Fault{Kind: faultinject.Error})
	d := watchdog.New(watchdog.WithFactory(factory))
	dn.InstallWatchdog(d)
	// The mimic checker is hook-gated; drive one write through a healthy
	// volume first. Block 1 goes to volume 1 (id%2), so it succeeds.
	if _, err := dn.WriteBlock([]byte("traffic")); err != nil {
		t.Fatal(err)
	}
	rep, err := d.CheckNow("dfs.disk")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != watchdog.StatusError {
		t.Fatalf("mimic checker = %v, want error", rep.Status)
	}
	if rep.Site.Op != "volume0/writeFileSync" {
		t.Fatalf("pinpoint = %v", rep.Site)
	}
}

func TestMimicDiskCheckerHangsOnBlackholedVolume(t *testing.T) {
	dn := newNode(t, 1, nil)
	dn.Injector().Arm(FaultVolumeWritePrefix+"0", faultinject.Fault{Kind: faultinject.Hang})
	d := watchdog.New(watchdog.WithTimeout(200 * time.Millisecond))
	dn.InstallWatchdog(d)
	// The abandoned checker goes on to write its probe file once released:
	// release it and let it finish before the volume directory goes.
	t.Cleanup(func() {
		dn.Injector().Clear()
		for deadline := time.Now().Add(5 * time.Second); d.LeakedHung() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d checker execution(s) still hung after release", d.LeakedHung())
				return
			}
		}
	})
	// Make the mimic checker runnable without traffic.
	d.Factory().Context("dfs.disk").MarkReady()
	done := make(chan watchdog.Report, 1)
	go func() {
		rep, _ := d.CheckNow("dfs.disk")
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Status != watchdog.StatusStuck {
			t.Fatalf("status = %v, want stuck", rep.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver never timed out")
	}
}

func TestScannerCheckerFlagsCorruptBlocks(t *testing.T) {
	dn := newNode(t, 1, nil)
	d := watchdog.New()
	dn.InstallWatchdog(d)
	id, _ := dn.WriteBlock([]byte("scan me"))
	if rep, _ := d.CheckNow("dfs.scanner"); rep.Status != watchdog.StatusHealthy {
		t.Fatalf("clean scanner = %v", rep.Status)
	}
	path, _ := dn.BlockPath(id)
	data, _ := os.ReadFile(path)
	data[4] ^= 0x10
	os.WriteFile(path, data, 0o644)
	rep, _ := d.CheckNow("dfs.scanner")
	if rep.Status != watchdog.StatusError {
		t.Fatalf("scanner on corrupt block = %v", rep.Status)
	}
}

func TestWriteBlockHookPopulatesContext(t *testing.T) {
	factory := watchdog.NewFactory()
	dn := newNode(t, 1, factory)
	dn.WriteBlock([]byte("hooked payload"))
	ctx := factory.Context("dfs.disk")
	if !ctx.Ready() {
		t.Fatal("hook did not mark context ready")
	}
	if string(ctx.GetBytes("sample")) != "hooked payload" {
		t.Fatalf("sample = %q", ctx.GetBytes("sample"))
	}
}

func TestNewRequiresVolumes(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no volumes succeeded")
	}
}

// Property: any written payload reads back identically.
func TestBlockRoundTripProperty(t *testing.T) {
	dn := newNode(t, 3, nil)
	f := func(data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		id, err := dn.WriteBlock(data)
		if err != nil {
			return false
		}
		got, err := dn.ReadBlock(id)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
