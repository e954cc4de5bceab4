package memtable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key/%06d", i))
	}
	return keys
}

func BenchmarkPut(b *testing.B) {
	m := New()
	keys := benchKeys(4096)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%len(keys)], val)
	}
}

func BenchmarkGetHit(b *testing.B) {
	m := New()
	keys := benchKeys(4096)
	for _, k := range keys {
		m.Put(k, []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := m.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	m := New()
	for _, k := range benchKeys(4096) {
		m.Put(k, []byte("value"))
	}
	missing := []byte("zzz/not-there")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := m.Get(missing); ok {
			b.Fatal("hit")
		}
	}
}

func BenchmarkEntriesSnapshot(b *testing.B) {
	m := New()
	for _, k := range benchKeys(1024) {
		m.Put(k, []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es := m.Entries(); len(es) != 1024 {
			b.Fatalf("entries = %d", len(es))
		}
	}
}

// The workload-shaped benchmarks mirror one kvs store's memtables under
// kvs_mixed_cpu: shapeTables partitions of shapeKeys 8-byte keys with 64-byte
// values, touched in random order so that every lookup starts cold.
const (
	shapeTables = 4
	shapeKeys   = 16 << 10
)

// shapeKeySet returns shapeTables*shapeKeys distinct 8-byte keys in a
// seeded random order.
func shapeKeySet() [][]byte {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool, shapeTables*shapeKeys)
	keys := make([][]byte, 0, shapeTables*shapeKeys)
	for len(keys) < cap(keys) {
		v := rng.Uint64()
		if seen[v] {
			continue
		}
		seen[v] = true
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		keys = append(keys, k)
	}
	return keys
}

// fillShape puts keys round-robin into shapeTables fresh tables.
func fillShape(keys [][]byte, val []byte) []*Table {
	tables := make([]*Table, shapeTables)
	for i := range tables {
		tables[i] = New()
	}
	for i, k := range keys {
		tables[i%shapeTables].Put(k, val)
	}
	return tables
}

// BenchmarkGetRandom is one random-order Get hit against the shape above.
func BenchmarkGetRandom(b *testing.B) {
	keys := shapeKeySet()
	tables := fillShape(keys, make([]byte, 64))
	order := rand.New(rand.NewSource(2)).Perm(len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := order[i%len(order)]
		if _, _, ok := tables[j%shapeTables].Get(keys[j]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFillRandom is one op per whole fill: shapeTables*shapeKeys new
// keys inserted in random order, so every Put links a fresh node.
func BenchmarkFillRandom(b *testing.B) {
	keys := shapeKeySet()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ts := fillShape(keys, val); ts[0].Nodes() != shapeKeys {
			b.Fatalf("nodes = %d", ts[0].Nodes())
		}
	}
}
