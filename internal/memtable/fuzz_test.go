package memtable

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzTable is a differential test: it decodes its input into a sequence
// of table operations and checks each one against a sorted-map model.
//
// The input is a stream of operations. Each starts with an opcode byte
// (taken modulo fuzzOps) and a key: a length byte (modulo 13, so keys run
// from empty to past the 8-byte prefix) and that many key bytes. A put
// then carries a value: a length byte (modulo 17) and that many bytes. A
// truncated input ends the stream.
func FuzzTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New()
		model := map[string]fuzzEntry{}
		var cursor []byte // the scan-step cursor's key; nil before Ceil primes it
		for len(data) > 0 {
			op := data[0] % fuzzOps
			key, rest, ok := fuzzBytes(data[1:], 13)
			if !ok {
				return
			}
			data = rest
			switch op {
			case fuzzPut:
				val, rest, ok := fuzzBytes(data, 17)
				if !ok {
					return
				}
				data = rest
				m.Put(key, val)
				model[string(key)] = fuzzEntry{value: string(val)}
			case fuzzDelete:
				m.Delete(key)
				model[string(key)] = fuzzEntry{tombstone: true}
			case fuzzGet:
				v, tomb, ok := m.Get(key)
				want, wantOK := model[string(key)]
				if ok != wantOK || tomb != want.tombstone || string(v) != want.value {
					t.Fatalf("Get(%q) = %q, %v, %v; model %+v, %v", key, v, tomb, ok, want, wantOK)
				}
			case fuzzCeil:
				e, ok := m.Ceil(key)
				checkCursor(t, "Ceil", key, e, ok, model, true)
				cursor = nil
				if ok {
					cursor = e.Key
				}
			case fuzzStep:
				// One scan step: from the cursor's key when a Ceil primed
				// one, else from the decoded key.
				from := key
				if cursor != nil {
					from = cursor
				}
				e, ok := m.After(from)
				checkCursor(t, "After", from, e, ok, model, false)
				cursor = nil
				if ok {
					cursor = e.Key
				}
			case fuzzEntries:
				checkSnapshot(t, m, model, key)
			}
		}
		checkSnapshot(t, m, model, nil)
	})
}

const (
	fuzzPut = iota
	fuzzDelete
	fuzzGet
	fuzzCeil
	fuzzStep
	fuzzEntries
	fuzzOps
)

type fuzzEntry struct {
	value     string
	tombstone bool
}

// fuzzBytes decodes a length byte (modulo mod) and that many bytes from b.
func fuzzBytes(b []byte, mod int) (out, rest []byte, ok bool) {
	if len(b) == 0 {
		return nil, nil, false
	}
	n := int(b[0]) % mod
	if len(b)-1 < n {
		return nil, nil, false
	}
	return b[1 : 1+n], b[1+n:], true
}

func sortedKeys(model map[string]fuzzEntry) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkCursor checks a Ceil (inclusive) or After (exclusive) result for key
// against the model's first key at or past it.
func checkCursor(t *testing.T, name string, key []byte, e Entry, ok bool, model map[string]fuzzEntry, inclusive bool) {
	t.Helper()
	keys := sortedKeys(model)
	i := sort.SearchStrings(keys, string(key))
	if !inclusive && i < len(keys) && keys[i] == string(key) {
		i++
	}
	if i == len(keys) {
		if ok {
			t.Fatalf("%s(%q) = %q, want none", name, key, e.Key)
		}
		return
	}
	want := model[keys[i]]
	if !ok || string(e.Key) != keys[i] || e.Tombstone != want.tombstone || string(e.Value) != want.value {
		t.Fatalf("%s(%q) = %q %q %v %v, want %q %+v", name, key, e.Key, e.Value, e.Tombstone, ok, keys[i], want)
	}
}

// checkSnapshot checks Entries, Scan from start, the counters and
// ApproxBytes against the model.
func checkSnapshot(t *testing.T, m *Table, model map[string]fuzzEntry, start []byte) {
	t.Helper()
	keys := sortedKeys(model)
	entries := m.Entries()
	if len(entries) != len(keys) || m.Nodes() != len(keys) {
		t.Fatalf("Entries has %d, Nodes %d, model %d", len(entries), m.Nodes(), len(keys))
	}
	live := 0
	var bytesWant int64
	for i, e := range entries {
		want := model[keys[i]]
		if string(e.Key) != keys[i] || e.Tombstone != want.tombstone || string(e.Value) != want.value {
			t.Fatalf("Entries[%d] = %q %q %v, want %q %+v", i, e.Key, e.Value, e.Tombstone, keys[i], want)
		}
		if !want.tombstone {
			live++
		}
		bytesWant += int64(len(keys[i]) + len(want.value) + 64)
	}
	if m.Len() != live || m.ApproxBytes() != bytesWant {
		t.Fatalf("Len %d, ApproxBytes %d; want %d, %d", m.Len(), m.ApproxBytes(), live, bytesWant)
	}
	var scanned []string
	m.Scan(start, nil, func(k, v []byte) bool {
		if want := model[string(k)]; want.tombstone || string(v) != want.value {
			t.Fatalf("Scan yielded %q=%q, model %+v", k, v, want)
		}
		scanned = append(scanned, string(k))
		return true
	})
	var wantScan []string
	for _, k := range keys {
		if !model[k].tombstone && bytes.Compare([]byte(k), start) >= 0 {
			wantScan = append(wantScan, k)
		}
	}
	if len(scanned) != len(wantScan) {
		t.Fatalf("Scan(%q) = %q, want %q", start, scanned, wantScan)
	}
	for i := range wantScan {
		if scanned[i] != wantScan[i] {
			t.Fatalf("Scan(%q) = %q, want %q", start, scanned, wantScan)
		}
	}
}
