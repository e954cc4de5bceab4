package sstable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"gowatchdog/internal/memtable"
)

// pinnedEntries covers each encoding case of the data section: a
// tombstone, an empty value, and a value over 127 bytes, whose length
// takes a two-byte uvarint.
func pinnedEntries() []memtable.Entry {
	return []memtable.Entry{
		entry("alpha", "1"),
		tombstone("bravo"),
		entry("charlie", ""),
		{Key: []byte("delta"), Value: bytes.Repeat([]byte("0123456789"), 20)},
		tombstone("echo"),
	}
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFormatPinned: Write and Merge produce byte for byte the files the
// original bytes.Buffer encoder produced (the digests were recorded from
// it), so tables written before and after a change to the encoder open and
// read identically on either side.
func TestFormatPinned(t *testing.T) {
	dir := t.TempDir()
	older := filepath.Join(dir, "older.sst")
	if err := Write(older, pinnedEntries()); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.sst")
	if err := Write(empty, nil); err != nil {
		t.Fatal(err)
	}
	newer := filepath.Join(dir, "newer.sst")
	if err := Write(newer, []memtable.Entry{
		entry("bravo", "back"), tombstone("charlie"), entry("foxtrot", "new"),
	}); err != nil {
		t.Fatal(err)
	}
	in := []*Reader{openTable(t, newer), openTable(t, older)}
	kept := filepath.Join(dir, "kept.sst")
	if err := Merge(kept, in, false); err != nil {
		t.Fatal(err)
	}
	dropped := filepath.Join(dir, "dropped.sst")
	if err := Merge(dropped, in, true); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, want string }{
		{older, "54615aff8b038ae8d1acc3b544cf6679058bba26f49859430d870362e0bc41c7"},
		{empty, "c4414860ac64335932b469e7e421171db2cd8bfc5a6e30fafaeead6c4981e1f9"},
		{newer, "4fa59954b35f72e823bd0231b0a53535e19aefdbf6b22cf623a9b199f23195dc"},
		{kept, "9415829a6ea39e448303006a78fa498fffede232b1ae7e5157ed0fe6ed2c5485"},
		{dropped, "57f1fdcf6d565966f54c66f9c0d9d0405ea33c9275e7fbdc63a772e44b9982ff"},
	} {
		if got := fileSHA(t, c.path); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(c.path), got, c.want)
		}
	}
}
