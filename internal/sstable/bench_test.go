package sstable

import (
	"fmt"
	"path/filepath"
	"testing"

	"gowatchdog/internal/memtable"
)

func benchEntries(n int) []memtable.Entry {
	out := make([]memtable.Entry, n)
	for i := range out {
		out[i] = memtable.Entry{
			Key:   []byte(fmt.Sprintf("key/%06d", i)),
			Value: []byte(fmt.Sprintf("value-%06d-0123456789abcdef", i)),
		}
	}
	return out
}

func BenchmarkWrite1K(b *testing.B) {
	entries := benchEntries(1000)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(filepath.Join(dir, fmt.Sprintf("b%d.sst", i)), entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "g.sst")
	entries := benchEntries(4096)
	if err := Write(path, entries); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, ok, err := r.Get(entries[i%len(entries)].Key)
		if err != nil || !ok {
			b.Fatalf("miss: %v", err)
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "o.sst")
	if err := Write(path, benchEntries(4096)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkIterate(b *testing.B) {
	path := filepath.Join(b.TempDir(), "it.sst")
	if err := Write(path, benchEntries(1000)); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Iterate(func(memtable.Entry) bool { n++; return true })
		if n != 1000 {
			b.Fatalf("n = %d", n)
		}
	}
}

func BenchmarkVerifyChecksum(b *testing.B) {
	path := filepath.Join(b.TempDir(), "v.sst")
	if err := Write(path, benchEntries(4096)); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.VerifyChecksum(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge4Way(b *testing.B) {
	dir := b.TempDir()
	var readers []*Reader
	for t := 0; t < 4; t++ {
		path := filepath.Join(dir, fmt.Sprintf("in%d.sst", t))
		entries := make([]memtable.Entry, 250)
		for i := range entries {
			entries[i] = memtable.Entry{
				Key:   []byte(fmt.Sprintf("key/%d/%06d", t, i)),
				Value: []byte("merge-value"),
			}
		}
		if err := Write(path, entries); err != nil {
			b.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		readers = append(readers, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Merge(filepath.Join(dir, fmt.Sprintf("out%d.sst", i)), readers, true); err != nil {
			b.Fatal(err)
		}
	}
}
