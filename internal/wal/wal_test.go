package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, _ := openLog(t)
	records := [][]byte{[]byte("one"), []byte("two"), []byte(""), []byte("four")}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 4 {
		t.Fatalf("Records = %d", l.Records())
	}
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
		}
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 5 {
		t.Fatalf("records after reopen = %d", l2.Records())
	}
	// Appends continue after the existing tail.
	if err := l2.Append([]byte("six")); err != nil {
		t.Fatal(err)
	}
	if l2.Records() != 6 {
		t.Fatalf("records = %d", l2.Records())
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("intact-1"))
	l.Append([]byte("intact-2"))
	l.Sync()
	size := l.Size()
	l.Close()

	// Simulate a crash mid-append: write half a frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2}) // header cut short
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 2 {
		t.Fatalf("records = %d, want 2", l2.Records())
	}
	if l2.Size() != size {
		t.Fatalf("size = %d, want %d", l2.Size(), size)
	}
	count := 0
	l2.Replay(func([]byte) error { count++; return nil })
	if count != 2 {
		t.Fatalf("replayed %d", count)
	}
}

func TestCorruptMiddleRecordStopsAtTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("aaaa"))
	l.Append([]byte("bbbb"))
	l.Append([]byte("cccc"))
	l.Sync()
	l.Close()

	// Flip a byte inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8+4+8+1] ^= 0xFF // first frame is 8+4 bytes; corrupt second payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != 1 {
		t.Fatalf("records = %d, want 1 (stop at corruption)", l2.Records())
	}
}

func TestVerifyDetectsSilentCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("precious data"))
	l.Sync()
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify on intact log: %v", err)
	}
	// Corrupt in place without reopening — the open handle's view of "size"
	// still covers the corrupted frame, modelling bit rot under a running
	// process.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	err = l.Verify()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt", err)
	}
}

// TestVerifyFromResumes: VerifyFrom re-reads only the frames past the
// offset it is given, returns the end it reached, and reports a flip in a
// frame appended after that watermark.
func TestVerifyFromResumes(t *testing.T) {
	l, path := openLog(t)
	l.Append([]byte("first"))
	end, err := l.VerifyFrom(0)
	if err != nil || end != l.Size() {
		t.Fatalf("VerifyFrom(0) = %d, %v; size %d", end, err, l.Size())
	}
	// Nothing new: no read at all, the watermark stands.
	if again, err := l.VerifyFrom(end); err != nil || again != end {
		t.Fatalf("VerifyFrom(end) = %d, %v", again, err)
	}
	// Damage the verified frame: a resumed pass no longer looks at it.
	data, _ := os.ReadFile(path)
	data[frameHeader] ^= 0x01
	os.WriteFile(path, data, 0o644)
	l.Append([]byte("second"))
	got, err := l.VerifyFrom(end)
	if err != nil || got != l.Size() {
		t.Fatalf("VerifyFrom(%d) = %d, %v; size %d", end, got, err, l.Size())
	}
	if _, err := l.VerifyFrom(0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("full pass = %v, want ErrCorrupt", err)
	}
	// A flip past the watermark is found, and the watermark does not move.
	l.Append([]byte("third"))
	data, _ = os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	at, err := l.VerifyFrom(got)
	if !errors.Is(err, ErrCorrupt) || at != got {
		t.Fatalf("VerifyFrom(%d) = %d, %v; want %d, ErrCorrupt", got, at, err, got)
	}
}

// TestGenerationAdvancesOnReset: every Reset, and only a Reset, starts a
// new generation.
func TestGenerationAdvancesOnReset(t *testing.T) {
	l, _ := openLog(t)
	g0 := l.Generation()
	l.Append([]byte("x"))
	l.Sync()
	if l.Generation() != g0 {
		t.Fatal("append or sync changed the generation")
	}
	for i := 1; i <= 2; i++ {
		if err := l.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := l.Generation(); got != g0+uint64(i) {
			t.Fatalf("after %d resets generation = %d, want %d", i, got, g0+uint64(i))
		}
	}
}

func TestReset(t *testing.T) {
	l, _ := openLog(t)
	l.Append([]byte("x"))
	l.Sync()
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("size=%d records=%d after reset", l.Size(), l.Records())
	}
	// Usable after reset.
	if err := l.Append([]byte("y")); err != nil {
		t.Fatal(err)
	}
	count := 0
	l.Replay(func([]byte) error { count++; return nil })
	if count != 1 {
		t.Fatalf("replayed %d after reset+append", count)
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, _ := openLog(t)
	l.Close()
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync on closed log succeeded")
	}
	if err := l.Reset(); err == nil {
		t.Fatal("Reset on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	l, _ := openLog(t)
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	boom := errors.New("boom")
	err := l.Replay(func([]byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// Property: any sequence of appended payloads replays identically after
// close and reopen.
func TestAppendReplayProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(payloads [][]byte) bool {
		i++
		path := filepath.Join(dir, fmt.Sprintf("q%d.wal", i))
		l, err := Open(path)
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if len(p) > 1<<16 {
				p = p[:1<<16]
			}
			if err := l.Append(p); err != nil {
				l.Close()
				return false
			}
		}
		l.Sync()
		l.Close()
		l2, err := Open(path)
		if err != nil {
			return false
		}
		defer l2.Close()
		var got [][]byte
		l2.Replay(func(p []byte) error {
			cp := make([]byte, len(p))
			copy(cp, p)
			got = append(got, cp)
			return nil
		})
		if len(got) != len(payloads) {
			return false
		}
		for j := range payloads {
			want := payloads[j]
			if len(want) > 1<<16 {
				want = want[:1<<16]
			}
			if !bytes.Equal(got[j], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
