package sstable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gowatchdog/internal/memtable"
)

// FuzzReader opens arbitrary bytes as a table and drives every read path
// over it: Open, Get for every index key, a Seek/Next walk, Iterate and
// VerifyChecksum. None may panic or exhaust memory, every error must be
// ErrCorrupt, and the paths must agree: the walk and Iterate fail together
// or yield the same entries, Count of them, and Get fails only when they
// do. The seed corpus in testdata/fuzz/FuzzReader holds a valid table,
// truncations of it, and the forged entry count and key length that once
// ended the process with a fatal out-of-memory.
func FuzzReader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.sst")
	f.Fuzz(func(t *testing.T, table []byte) {
		if err := os.WriteFile(path, table, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want ErrCorrupt", err)
			}
			return
		}
		defer r.Close()

		var walked []memtable.Entry
		it := r.Seek(nil)
		var walkErr error
		for {
			e, ok, err := it.Next()
			if err != nil || !ok {
				walkErr = err
				break
			}
			walked = append(walked, e)
		}
		var iterated []memtable.Entry
		iterErr := r.Iterate(func(e memtable.Entry) bool {
			iterated = append(iterated, e)
			return true
		})
		for _, err := range []error{walkErr, iterErr} {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read: %v, want ErrCorrupt", err)
			}
		}
		if (walkErr == nil) != (iterErr == nil) {
			t.Fatalf("Next walk error %v, Iterate error %v", walkErr, iterErr)
		}
		if iterErr == nil {
			if !reflect.DeepEqual(walked, iterated) {
				t.Fatalf("Next walk %v, Iterate %v", walked, iterated)
			}
			if len(iterated) != r.Count() {
				t.Fatalf("%d entries, Count %d", len(iterated), r.Count())
			}
		}
		for _, ie := range r.index {
			_, _, _, err := r.Get(ie.key)
			if err != nil && (iterErr == nil || !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("Get(%q): %v after Iterate returned %v", ie.key, err, iterErr)
			}
		}
		if err := r.VerifyChecksum(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("VerifyChecksum: %v, want nil or ErrCorrupt", err)
		}
	})
}
