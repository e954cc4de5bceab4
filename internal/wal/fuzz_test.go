package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// intactPrefix decodes data the way the frame format defines it, with no
// code of the package's own reader: it returns the length of the prefix of
// whole frames with matching checksums, and their payloads.
func intactPrefix(data []byte) (int64, [][]byte) {
	off := 0
	var recs [][]byte
	for len(data)-off >= frameHeader {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > len(data)-off-frameHeader {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		recs = append(recs, payload)
		off += frameHeader + n
	}
	return int64(off), recs
}

// replayAll returns copies of every record l replays.
func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzLog opens arbitrary bytes as a log. Open must keep exactly the intact
// prefix of whole, checksummed frames, allocating no more than the input
// warrants; Replay and VerifyFrom must agree with it; and a record appended
// and synced after Open must reopen behind that prefix. The committed seeds
// in testdata/fuzz/FuzzLog cover a valid log, its truncations, a torn tail,
// a header claiming 1 GiB and the image a short write used to leave.
func FuzzLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		end, want := intactPrefix(data)
		var l *Log
		var err error
		if n := allocated(func() { l, err = Open(path) }); n > 1<<20+2*uint64(len(data)) {
			t.Fatalf("Open of %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if l.Size() != end || l.Records() != int64(len(want)) {
			t.Fatalf("Open kept %d records in %d bytes, want %d in %d", l.Records(), l.Size(), len(want), end)
		}
		if got := replayAll(t, l); !sameRecords(got, want) {
			t.Fatalf("Replay gave %d records, want the %d of the intact prefix", len(got), len(want))
		}
		if off, err := l.VerifyFrom(0); err != nil || off != end {
			t.Fatalf("VerifyFrom(0) = %d, %v; want %d, nil", off, err, end)
		}

		if err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := replayAll(t, re); !sameRecords(got, append(want, []byte("appended"))) {
			t.Fatalf("reopen after an append gave %d records, want %d", len(got), len(want)+1)
		}
	})
}

// TestForgedLengthAllocatesLittle: a frame header that claims 1 GiB costs
// no more than the bytes actually there, both when Open scans an 8-byte
// file and when VerifyFrom meets the forged header inside a live log.
func TestForgedLengthAllocatesLittle(t *testing.T) {
	const bound = 1 << 20
	path := filepath.Join(t.TempDir(), "forged.wal")
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, 1<<30)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	var l *Log
	var err error
	if n := allocated(func() { l, err = Open(path) }); n > bound {
		t.Fatalf("Open of a forged 8-byte log allocated %d bytes", n)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("Open kept %d records in %d bytes of a forged header", l.Records(), l.Size())
	}

	l.Append([]byte("first"))
	l.Append([]byte("second"))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint32(data[frameHeader+len("first"):], 1<<30)
	os.WriteFile(path, data, 0o644)
	if n := allocated(func() { _, err = l.VerifyFrom(0) }); n > bound {
		t.Fatalf("VerifyFrom over a forged header allocated %d bytes", n)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyFrom over a forged header = %v, want ErrCorrupt", err)
	}
}
