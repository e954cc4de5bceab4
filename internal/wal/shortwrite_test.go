//go:build unix

package wal

import (
	"bytes"
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// fsizeChildEnv marks the re-executed test binary that runs a short-write
// scenario under RLIMIT_FSIZE, which only it may lower.
const fsizeChildEnv = "WAL_FSIZE_CHILD"

// inFsizeChild reports whether the test runs in the child; otherwise it
// re-runs the test alone in a child process and fails with its output if
// the child fails.
func inFsizeChild(t *testing.T) bool {
	t.Helper()
	if os.Getenv(fsizeChildEnv) != "" {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), fsizeChildEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v; output:\n%s", err, out)
	}
	return false
}

// limitFileSize caps the size of any file the process writes at n bytes,
// until the test ends. A write past the cap is cut short and the next one
// fails with EFBIG (Go ignores the SIGXFSZ that comes with it).
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	restore = func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(restore)
	return restore
}

// TestShortWriteLosesNoAckedRecord: a write that the disk cuts short (here
// RLIMIT_FSIZE, 20 bytes past the log's end) fails, and leaves no torn
// frame in front of later records: the next append and sync succeed, the
// log verifies clean, and a reopen replays every acknowledged record and
// nothing of the failed one.
func TestShortWriteLosesNoAckedRecord(t *testing.T) {
	if !inFsizeChild(t) {
		return
	}
	l, path := openLog(t)
	if err := l.Append([]byte("acked-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	restore := limitFileSize(t, l.Size()+20)
	err := l.Append(bytes.Repeat([]byte("x"), 100))
	if err == nil {
		err = l.Sync()
	}
	if err == nil {
		t.Fatal("a write past the file size limit succeeded")
	}
	restore()

	if err := l.Append([]byte("acked-2")); err != nil {
		t.Fatalf("append after the failed write: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after the failed write: %v", err)
	}
	if end, err := l.VerifyFrom(0); err != nil || end != l.Size() {
		t.Fatalf("VerifyFrom(0) = %d, %v; size %d", end, err, l.Size())
	}
	l.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got []string
	re.Replay(func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 2 || got[0] != "acked-1" || got[1] != "acked-2" {
		t.Fatalf("reopen replays %q, want [acked-1 acked-2]", got)
	}
}

// TestFailedWriteReportsEveryLoss: a failed write drops the frames other
// callers appended before it, so the next Flush and the next Sync report
// the loss, each once, and the log then carries on.
func TestFailedWriteReportsEveryLoss(t *testing.T) {
	if !inFsizeChild(t) {
		return
	}
	l, _ := openLog(t)
	restore := limitFileSize(t, 20)
	// The first record fills the tail to within a frame of its cap, so the
	// second append has to write it, and fails.
	if err := l.Append(make([]byte, tailCap-frameHeader-4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("overflow")); err == nil {
		t.Fatal("an append that had to write past the limit succeeded")
	}
	restore()
	if l.Records() != 0 {
		t.Fatalf("Records = %d after the failed write, want 0", l.Records())
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync did not report the dropped record")
	}
	if err := l.Append([]byte("later")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("Flush did not report the dropped record")
	}
	if l.Records() != 0 {
		t.Fatalf("Records = %d: a reported loss keeps the frames appended after it", l.Records())
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush after the loss was reported: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the loss was reported: %v", err)
	}
	var got []string
	l.Replay(func(p []byte) error { got = append(got, string(p)); return nil })
	if len(got) != 1 || got[0] != "fresh" {
		t.Fatalf("log holds %q, want [fresh]", got)
	}
}
