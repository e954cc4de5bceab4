package sstable

// Count returns the number of entries (tombstones included).
func (r *Reader) Count() int { return r.count }
