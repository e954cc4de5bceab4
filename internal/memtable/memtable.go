// Package memtable implements the sorted in-memory table that backs the kvs
// indexer: a skiplist for ordered access, plus an open-addressing hash index
// over the skiplist's nodes for point access. Writes land here first; the
// disk flusher drains full memtables into SSTables.
//
// Deletions are recorded as tombstones so that a flushed SSTable can shadow
// older values for the same key during reads and compaction. Because of
// that, nodes are never unlinked (a flush swaps in a new table), and the
// hash index needs no deletion path.
package memtable

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/rand"
	"sync"
)

const (
	maxHeight = 12
	minSlots  = 16 // initial hash index size; a power of two
	chunkBits = 6  // nodes are allocated 1<<chunkBits at a time
	chunkMask = 1<<chunkBits - 1
)

// Entry is one key-value pair; Tombstone marks a deletion.
type Entry struct {
	Key       []byte
	Value     []byte
	Tombstone bool
}

// node leads with the fields a descent reads, so that visiting a node
// mostly costs one cache line.
type node struct {
	// prefix is keyPrefix(entry.Key): a descent orders most nodes by it
	// without touching the key's own allocation.
	prefix uint64
	next   [maxHeight]*node
	entry  Entry
}

// keyPrefix returns key's first 8 bytes as a big-endian, zero-padded
// integer. Two keys whose prefixes differ compare as their prefixes do;
// equal prefixes say nothing, since padding makes "a" and "a\x00" alike.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// less reports whether n's key sorts before key, whose prefix is kp.
func (n *node) less(key []byte, kp uint64) bool {
	if n.prefix != kp {
		return n.prefix < kp
	}
	return bytes.Compare(n.entry.Key, key) < 0
}

// Table is a concurrency-safe sorted map from []byte keys to values with
// tombstone support. The zero value is not usable; call New.
type Table struct {
	mu     sync.RWMutex
	head   *node
	height int
	rng    *rand.Rand
	seed   maphash.Seed
	// chunks holds every node but head in insertion order: node i is
	// chunks[i>>chunkBits][i&chunkMask].
	chunks []*[1 << chunkBits]node
	// slots is the hash index, placed by linear probing from the key's
	// hash; len(slots) is a power of two at least twice nodes. A slot is
	// 0 when empty, else node i+1 in its high half and the low 32 bits of
	// the key's hash in its low half. It holds no pointer, so the collector
	// never scans the index, and a probe or a doubling reads no node whose
	// hash does not match.
	slots []uint64
	count int   // live (non-tombstone) entries
	nodes int   // total nodes including tombstones
	bytes int64 // approximate memory footprint
}

// New returns an empty table. The skiplist's level generator is seeded
// deterministically so tests are reproducible; the hash index's seed is
// random per table and never shows in any output.
func New() *Table {
	return &Table{
		head:   &node{},
		height: 1,
		rng:    rand.New(rand.NewSource(0x5EED)),
		seed:   maphash.MakeSeed(),
		slots:  make([]uint64, minSlots),
	}
}

func (t *Table) randomHeight() int {
	h := 1
	for h < maxHeight && t.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// lookup returns key's node from the hash index, or nil and the empty slot
// where key's node would go, with the key's hash to store there.
func (t *Table) lookup(key []byte) (*node, int, uint32) {
	h := uint32(maphash.Bytes(t.seed, key))
	mask := len(t.slots) - 1
	i := int(h) & mask
	for s := t.slots[i]; s != 0; s = t.slots[i] {
		if uint32(s) == h {
			if n := t.node(s>>32 - 1); bytes.Equal(n.entry.Key, key) {
				return n, i, h
			}
		}
		i = (i + 1) & mask
	}
	return nil, i, h
}

// node returns node i.
func (t *Table) node(i uint64) *node {
	return &t.chunks[i>>chunkBits][i&chunkMask]
}

// grow doubles the hash index and re-places every slot in it.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := int(uint32(s)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// findGreaterOrEqual returns the first node with key >= key and fills prev
// with the rightmost node before it at every level.
func (t *Table) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	kp := keyPrefix(key)
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for x.next[level] != nil && x.next[level].less(key, kp) {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Put inserts or overwrites key with value. The table keeps copies of both.
func (t *Table) Put(key, value []byte) {
	t.set(key, value, false)
}

// Delete records a tombstone for key.
func (t *Table) Delete(key []byte) {
	t.set(key, nil, true)
}

func (t *Table) set(key, value []byte, tombstone bool) {
	v := append([]byte(nil), value...)
	t.mu.Lock()
	defer t.mu.Unlock()
	x, slot, hash := t.lookup(key)
	if x != nil {
		// Overwrite in place; adjust live count and size.
		wasLive := !x.entry.Tombstone
		t.bytes += int64(len(v) - len(x.entry.Value))
		x.entry.Value = v
		x.entry.Tombstone = tombstone
		if wasLive && tombstone {
			t.count--
		} else if !wasLive && !tombstone {
			t.count++
		}
		return
	}
	var prev [maxHeight]*node
	t.findGreaterOrEqual(key, &prev)
	h := t.randomHeight()
	if h > t.height {
		for level := t.height; level < h; level++ {
			prev[level] = t.head
		}
		t.height = h
	}
	k := append([]byte(nil), key...)
	if t.nodes&chunkMask == 0 {
		t.chunks = append(t.chunks, new([1 << chunkBits]node))
	}
	n := t.node(uint64(t.nodes))
	n.entry = Entry{Key: k, Value: v, Tombstone: tombstone}
	n.prefix = keyPrefix(k)
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	t.nodes++
	t.slots[slot] = uint64(t.nodes)<<32 | uint64(hash)
	if 2*t.nodes > len(t.slots) {
		t.grow()
	}
	t.bytes += int64(len(k) + len(v) + 64)
	if !tombstone {
		t.count++
	}
}

// Get returns the value for key. ok is false if the key is absent;
// a tombstoned key returns ok true with tombstone true.
func (t *Table) Get(key []byte) (value []byte, tombstone, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x, _, _ := t.lookup(key)
	if x == nil {
		return nil, false, false
	}
	if x.entry.Tombstone {
		return nil, true, true
	}
	out := make([]byte, len(x.entry.Value))
	copy(out, x.entry.Value)
	return out, false, true
}

// Len returns the number of live (non-tombstone) entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// Nodes returns the total number of entries including tombstones.
func (t *Table) Nodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
}

// ApproxBytes returns the approximate memory footprint, used by the flusher
// to decide when a memtable is full.
func (t *Table) ApproxBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Iterate calls fn on every entry (tombstones included) in ascending key
// order. fn must not modify the table; returning false stops iteration.
func (t *Table) Iterate(fn func(e Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for x := t.head.next[0]; x != nil; x = x.next[0] {
		if !fn(x.entry) {
			return
		}
	}
}

// Entries returns a copy of all entries (tombstones included) in ascending
// key order — the flusher's snapshot input.
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, 0, t.nodes)
	for x := t.head.next[0]; x != nil; x = x.next[0] {
		out = append(out, x.copyEntry())
	}
	return out
}

// copyEntry returns a copy of n's entry that shares no memory with it.
func (n *node) copyEntry() Entry {
	e := Entry{
		Key:       append([]byte(nil), n.entry.Key...),
		Tombstone: n.entry.Tombstone,
	}
	if !n.entry.Tombstone {
		e.Value = append([]byte(nil), n.entry.Value...)
	}
	return e
}

// Ceil returns a copy of the first entry (tombstones included) with
// key >= key, seeking through the skiplist in O(log n). With After it is
// the bounded scan merge's resumable cursor: each step takes the read lock
// only for itself, so lock hold times stay tiny however long the scan.
func (t *Table) Ceil(key []byte) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.findGreaterOrEqual(key, nil)
	if x == nil {
		return Entry{}, false
	}
	return x.copyEntry(), true
}

// After returns a copy of the first entry (tombstones included) with
// key > key. When key is in the table, as a scan cursor's current key is,
// that is its node's successor, found through the hash index without a
// descent.
func (t *Table) After(key []byte) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x, _, _ := t.lookup(key)
	if x != nil {
		x = x.next[0]
	} else {
		x = t.findGreaterOrEqual(key, nil) // key is absent, so this is > key
	}
	if x == nil {
		return Entry{}, false
	}
	return x.copyEntry(), true
}

// Scan calls fn on live entries with start <= key < end (nil end = no upper
// bound), in ascending order; returning false stops the scan.
func (t *Table) Scan(start, end []byte, fn func(key, value []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	x := t.findGreaterOrEqual(start, nil)
	for ; x != nil; x = x.next[0] {
		if end != nil && bytes.Compare(x.entry.Key, end) >= 0 {
			return
		}
		if x.entry.Tombstone {
			continue
		}
		if !fn(x.entry.Key, x.entry.Value) {
			return
		}
	}
}
