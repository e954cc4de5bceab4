package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"gowatchdog/internal/memtable"
)

func entry(k, v string) memtable.Entry {
	return memtable.Entry{Key: []byte(k), Value: []byte(v)}
}

func tombstone(k string) memtable.Entry {
	return memtable.Entry{Key: []byte(k), Tombstone: true}
}

func writeTable(t *testing.T, name string, entries []memtable.Entry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := Write(path, entries); err != nil {
		t.Fatal(err)
	}
	return path
}

func openTable(t *testing.T, path string) *Reader {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestWriteOpenGet(t *testing.T) {
	path := writeTable(t, "t.sst", []memtable.Entry{
		entry("apple", "red"), entry("banana", "yellow"), tombstone("cherry"),
	})
	r := openTable(t, path)
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
	v, tomb, ok, err := r.Get([]byte("banana"))
	if err != nil || !ok || tomb || string(v) != "yellow" {
		t.Fatalf("Get(banana) = %q %v %v %v", v, tomb, ok, err)
	}
	_, tomb, ok, err = r.Get([]byte("cherry"))
	if err != nil || !ok || !tomb {
		t.Fatalf("Get(cherry) = tomb %v ok %v err %v", tomb, ok, err)
	}
	_, _, ok, err = r.Get([]byte("durian"))
	if err != nil || ok {
		t.Fatalf("Get(durian) ok=%v err=%v", ok, err)
	}
}

func TestEmptyTable(t *testing.T) {
	path := writeTable(t, "empty.sst", nil)
	r := openTable(t, path)
	if r.Count() != 0 {
		t.Fatalf("Count = %d", r.Count())
	}
	if err := r.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	_, _, ok, _ := r.Get([]byte("k"))
	if ok {
		t.Fatal("Get on empty table found a key")
	}
}

func TestWriteRejectsUnsorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sst")
	err := Write(path, []memtable.Entry{entry("b", "1"), entry("a", "2")})
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("err = %v", err)
	}
	err = Write(path, []memtable.Entry{entry("a", "1"), entry("a", "2")})
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("duplicate keys: err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected input left a file: %v", err)
	}
}

func TestIterateOrderAndEarlyStop(t *testing.T) {
	path := writeTable(t, "it.sst", []memtable.Entry{
		entry("a", "1"), entry("b", "2"), entry("c", "3"),
	})
	r := openTable(t, path)
	var keys []string
	if err := r.Iterate(func(e memtable.Entry) bool {
		keys = append(keys, string(e.Key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	n := 0
	r.Iterate(func(memtable.Entry) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestVerifyChecksumDetectsCorruption(t *testing.T) {
	path := writeTable(t, "c.sst", []memtable.Entry{entry("key", "precious")})
	r := openTable(t, path)
	if err := r.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the data section (after the 8-byte magic).
	data, _ := os.ReadFile(path)
	data[10] ^= 0x01
	os.WriteFile(path, data, 0o644)
	r2 := openTable(t, path) // index/footer still parse
	if err := r2.VerifyChecksum(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyChecksum = %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	tiny := filepath.Join(dir, "tiny")
	os.WriteFile(tiny, []byte("x"), 0o644)
	if _, err := Open(tiny); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tiny: %v", err)
	}
	junk := filepath.Join(dir, "junk")
	os.WriteFile(junk, bytes.Repeat([]byte("J"), 100), 0o644)
	if _, err := Open(junk); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("junk: %v", err)
	}
}

// TestOpenRejectsForgedCount: a footer and index that agree on 2^40
// entries in a 42-byte file are rejected before the count sizes any
// allocation (it used to end the process with a fatal out-of-memory).
func TestOpenRejectsForgedCount(t *testing.T) {
	const count = 1 << 40
	table := append([]byte(nil), magic...)
	table = binary.AppendUvarint(table, count)
	table = binary.LittleEndian.AppendUint64(table, uint64(len(magic)))
	table = binary.LittleEndian.AppendUint64(table, count)
	table = binary.LittleEndian.AppendUint32(table, 0)
	table = append(table, magic...)
	path := filepath.Join(t.TempDir(), "forged.sst")
	if err := os.WriteFile(path, table, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestCorruptEntryIsErrCorrupt: with the index intact, an entry whose
// bytes lie about their length or key makes Get, Next and Iterate return
// ErrCorrupt. A key length of 2^40 used to size an allocation and end the
// process with a fatal out-of-memory.
func TestCorruptEntryIsErrCorrupt(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(data []byte)
	}{
		{"key length 2^40", func(data []byte) {
			copy(data[len(magic):], []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20})
		}},
		{"key differs from index", func(data []byte) { data[len(magic)+1] ^= 0x01 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeTable(t, "c.sst", []memtable.Entry{entry("key", "precious")})
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r := openTable(t, path)
			if _, _, _, err := r.Get([]byte("key")); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Get = %v, want ErrCorrupt", err)
			}
			if _, _, err := r.Seek(nil).Next(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Next = %v, want ErrCorrupt", err)
			}
			if err := r.Iterate(func(memtable.Entry) bool { return true }); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Iterate = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestMergeNewestWins(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.sst")
	newPath := filepath.Join(dir, "new.sst")
	if err := Write(oldPath, []memtable.Entry{
		entry("a", "old-a"), entry("b", "old-b"), entry("c", "old-c"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := Write(newPath, []memtable.Entry{
		entry("b", "new-b"), tombstone("c"), entry("d", "new-d"),
	}); err != nil {
		t.Fatal(err)
	}
	oldR := openTable(t, oldPath)
	newR := openTable(t, newPath)
	merged := filepath.Join(dir, "merged.sst")
	if err := Merge(merged, []*Reader{newR, oldR}, false); err != nil {
		t.Fatal(err)
	}
	m := openTable(t, merged)
	want := map[string]struct {
		val  string
		tomb bool
	}{
		"a": {"old-a", false}, "b": {"new-b", false}, "c": {"", true}, "d": {"new-d", false},
	}
	if m.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", m.Count(), len(want))
	}
	for k, w := range want {
		v, tomb, ok, err := m.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("Get(%s) err=%v ok=%v", k, err, ok)
		}
		if tomb != w.tomb || (!tomb && string(v) != w.val) {
			t.Fatalf("Get(%s) = %q tomb=%v, want %q tomb=%v", k, v, tomb, w.val, w.tomb)
		}
	}
}

func TestMergeDropTombstones(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "1.sst")
	Write(p1, []memtable.Entry{entry("a", "1"), tombstone("b")})
	r1 := openTable(t, p1)
	merged := filepath.Join(dir, "m.sst")
	if err := Merge(merged, []*Reader{r1}, true); err != nil {
		t.Fatal(err)
	}
	m := openTable(t, merged)
	if m.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (tombstone dropped)", m.Count())
	}
	if _, _, ok, _ := m.Get([]byte("b")); ok {
		t.Fatal("dropped tombstone still present")
	}
}

func TestLargeValuesRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("V"), 1<<18)
	path := writeTable(t, "big.sst", []memtable.Entry{
		{Key: []byte("big"), Value: big},
	})
	r := openTable(t, path)
	v, _, ok, err := r.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("big value: ok=%v err=%v len=%d", ok, err, len(v))
	}
	if err := r.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge agrees with a reference model (newest table wins per key;
// tombstones delete when dropped).
func TestMergeModelProperty(t *testing.T) {
	dir := t.TempDir()
	seq := 0
	f := func(gens [][]uint8, dropTombstones bool) bool {
		seq++
		if len(gens) == 0 {
			return true
		}
		if len(gens) > 4 {
			gens = gens[:4]
		}
		// Build one table per generation (gens[0] oldest) and the model.
		model := map[string]*memtable.Entry{}
		var readers []*Reader
		for g, keys := range gens {
			byKey := map[string]memtable.Entry{}
			for i, k := range keys {
				name := fmt.Sprintf("k%03d", k%32)
				e := memtable.Entry{Key: []byte(name)}
				if (int(k)+i+g)%4 == 0 {
					e.Tombstone = true
				} else {
					e.Value = []byte(fmt.Sprintf("g%d-%d", g, k))
				}
				byKey[name] = e
			}
			var names []string
			for n := range byKey {
				names = append(names, n)
			}
			sort.Strings(names)
			var entries []memtable.Entry
			for _, n := range names {
				e := byKey[n]
				entries = append(entries, e)
				ec := e
				model[n] = &ec // later (newer) generations overwrite
			}
			path := filepath.Join(dir, fmt.Sprintf("m%d-%d.sst", seq, g))
			if Write(path, entries) != nil {
				return false
			}
			r, err := Open(path)
			if err != nil {
				return false
			}
			defer r.Close()
			// Merge takes newest first.
			readers = append([]*Reader{r}, readers...)
		}
		out := filepath.Join(dir, fmt.Sprintf("m%d-out.sst", seq))
		if Merge(out, readers, dropTombstones) != nil {
			return false
		}
		m, err := Open(out)
		if err != nil {
			return false
		}
		defer m.Close()
		// Check the model against the merged table.
		want := 0
		for name, e := range model {
			v, tomb, ok, err := m.Get([]byte(name))
			if err != nil {
				return false
			}
			if e.Tombstone {
				if dropTombstones {
					if ok {
						return false
					}
				} else {
					if !ok || !tomb {
						return false
					}
					want++
				}
				continue
			}
			if !ok || tomb || string(v) != string(e.Value) {
				return false
			}
			want++
		}
		return m.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: writing a sorted random key set and reading every key back
// returns exactly the written values; iteration preserves order.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(m map[string]string) bool {
		i++
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]memtable.Entry, 0, len(keys))
		for _, k := range keys {
			entries = append(entries, entry(k, m[k]))
		}
		path := filepath.Join(dir, fmt.Sprintf("p%d.sst", i))
		if err := Write(path, entries); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		if r.Count() != len(keys) {
			return false
		}
		for _, k := range keys {
			v, tomb, ok, err := r.Get([]byte(k))
			if err != nil || !ok || tomb || string(v) != m[k] {
				return false
			}
		}
		return r.VerifyChecksum() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
