//go:build unix

package kvs

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fsizeChildEnv marks the re-executed test binary that runs a short-write
// scenario under RLIMIT_FSIZE, which only it may lower.
const fsizeChildEnv = "KVS_FSIZE_CHILD"

// TestCommitFailedWriteFailsExactlyItsBatch: when the WAL write of a
// group-commit batch is cut short (RLIMIT_FSIZE, 20 bytes past the log's
// end), exactly that batch's requests answer ERR; the batch before it and
// the one after it commit, and both survive a crash while nothing of the
// failed batch does.
func TestCommitFailedWriteFailsExactlyItsBatch(t *testing.T) {
	if os.Getenv(fsizeChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
		cmd.Env = append(os.Environ(), fsizeChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v; output:\n%s", err, out)
		}
		return
	}
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	p := s.parts[0]
	rc := dialRaw(t, srv.Addr())
	rc.send(t, "SET k0 v0")
	if got := rc.recv(t, 1); got[0] != "OK" {
		t.Fatalf("SET k0 = %q", got)
	}

	// Batch A (k1) is written and held at its fsync; batch B (k2, k3) is
	// appended behind it with the file size capped 20 bytes past A.
	gate := newSyncGate()
	p.log.SetSyncHook(gate.hook)
	rc.send(t, "SET k1 v1")
	gate.awaitSync(t)
	st, err := os.Stat(p.log.Path())
	if err != nil {
		t.Fatal(err)
	}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(st.Size() + 20)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	rc.send(t, "SET k2 "+strings.Repeat("x", 100), "SET k3 v3")
	// Wait for the reader to have handled both: appended, or refused.
	deadline := time.Now().Add(5 * time.Second)
	for p.log.Records()+s.errorsC.Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("wal holds %d records and %d writes failed, want 4 in all", p.log.Records(), s.errorsC.Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.log.SetSyncHook(nil)
	gate.verdict <- nil

	got := rc.recv(t, 3)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if got[0] != "OK" || !strings.HasPrefix(got[1], "ERR") || !strings.HasPrefix(got[2], "ERR") {
		t.Fatalf("answers %q, want OK for batch A and ERR for both of batch B", got)
	}
	rc.send(t, "SET k4 v4")
	if got := rc.recv(t, 1); got[0] != "OK" {
		t.Fatalf("SET k4 after the failed batch = %q", got)
	}
	// The crash image: the WAL as the disk holds it now. A clean close
	// would flush the memtable to a table and hide what the log lost.
	image, err := os.ReadFile(p.log.Path())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	s.Close()
	crashed := t.TempDir()
	if err := os.MkdirAll(filepath.Join(crashed, "p000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, "p000", "wal.log"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{Dir: crashed, Partitions: 1, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4"} {
		_, ok, err := re.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := k != "k2" && k != "k3"; ok != want {
			t.Fatalf("after reopen %s present = %v, want %v", k, ok, want)
		}
	}
}
