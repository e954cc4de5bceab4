package memtable

import "bytes"

// Nodes returns the total number of entries including tombstones.
func (t *Table) Nodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes
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
