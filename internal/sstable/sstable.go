// Package sstable implements the sorted immutable table files the kvs
// flusher produces and the compaction manager merges.
//
// File layout:
//
//	magic            8 bytes  "GWSSTB01"
//	data section     entries: uvarint keyLen | key | flag byte
//	                 (0=value follows, 1=tombstone) | uvarint valLen | value
//	index section    uvarint count, then per entry:
//	                 uvarint keyLen | key | uvarint dataOffset
//	footer           8B LE index offset | 8B LE entry count |
//	                 4B LE CRC32C(data section) | 8 bytes magic
//
// The full (non-sparse) index keeps Get a binary search over in-memory keys
// plus one read: an entry spans from its index offset to the next entry's
// (or to the end of the data section), so Get and Iterator.Next fetch it
// with one ReadAt, and Iterate, and so Merge, reads the data section once
// per table pass. The data-section checksum lets the watchdog's partition
// checker detect silent corruption without parsing entries.
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"gowatchdog/internal/memtable"
)

var magic = []byte("GWSSTB01")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a table fails structural or checksum
// validation.
var ErrCorrupt = errors.New("sstable: corrupt table")

// ErrUnsorted is returned by the writer when entries arrive out of order.
var ErrUnsorted = errors.New("sstable: entries not in ascending key order")

const footerLen = 8 + 8 + 4 + 8

// Write creates an SSTable at path from entries, which must be in strictly
// ascending key order (as produced by memtable.Entries). The order check and
// the exact size of every section come from one pass over entries before
// the file is created, so an unsorted input leaves no file behind; a second
// pass encodes the whole file into one buffer of that size.
func Write(path string, entries []memtable.Entry) error {
	dataLen, indexLen := 0, uvarintLen(uint64(len(entries)))
	for i, e := range entries {
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0 {
			return fmt.Errorf("%w: %q then %q", ErrUnsorted, entries[i-1].Key, e.Key)
		}
		indexLen += uvarintLen(uint64(len(e.Key))) + len(e.Key) + uvarintLen(uint64(dataLen))
		dataLen += entryLen(e)
	}

	indexOff := len(magic) + dataLen
	buf := make([]byte, indexOff+indexLen+footerLen)
	copy(buf, magic)
	data, index := buf[len(magic):indexOff], buf[indexOff:indexOff+indexLen]
	d, x := 0, binary.PutUvarint(index, uint64(len(entries)))
	for _, e := range entries {
		x += binary.PutUvarint(index[x:], uint64(len(e.Key)))
		x += copy(index[x:], e.Key)
		x += binary.PutUvarint(index[x:], uint64(d))
		d += binary.PutUvarint(data[d:], uint64(len(e.Key)))
		d += copy(data[d:], e.Key)
		if e.Tombstone {
			data[d] = 1
			d++
			continue
		}
		data[d] = 0
		d++
		d += binary.PutUvarint(data[d:], uint64(len(e.Value)))
		d += copy(data[d:], e.Value)
	}
	footer := buf[indexOff+indexLen:]
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(entries)))
	binary.LittleEndian.PutUint32(footer[16:20], crc32.Checksum(data, castagnoli))
	copy(footer[20:], magic)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// entryLen is the encoded size of e in the data section.
func entryLen(e memtable.Entry) int {
	n := uvarintLen(uint64(len(e.Key))) + len(e.Key) + 1
	if !e.Tombstone {
		n += uvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	return n
}

// indexEntry locates one key in the data section.
type indexEntry struct {
	key []byte
	off uint64
}

// Reader provides point lookups and ordered iteration over one table.
type Reader struct {
	path    string
	f       *os.File
	index   []indexEntry
	dataOff int64
	dataLen int64
	crc     uint32
	count   int
}

// Open validates the table structure and loads the index. Index keys are
// slices of the one buffer the index section is read into.
func Open(path string) (_ *Reader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(magic)+footerLen) {
		return nil, fmt.Errorf("%w: file too small", ErrCorrupt)
	}
	head := make([]byte, len(magic)+footerLen)
	if _, err := f.ReadAt(head[:len(magic)], 0); err != nil || !bytes.Equal(head[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	footer := head[len(magic):]
	if _, err := f.ReadAt(footer, size-footerLen); err != nil {
		return nil, err
	}
	if !bytes.Equal(footer[20:], magic) {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	count := binary.LittleEndian.Uint64(footer[8:16])
	crc := binary.LittleEndian.Uint32(footer[16:20])
	if indexOff < uint64(len(magic)) || indexOff > uint64(size-footerLen) {
		return nil, fmt.Errorf("%w: index offset out of range", ErrCorrupt)
	}
	indexBytes := make([]byte, uint64(size-footerLen)-indexOff)
	if _, err := f.ReadAt(indexBytes, int64(indexOff)); err != nil {
		return nil, err
	}
	n, w := binary.Uvarint(indexBytes)
	if w <= 0 || n != count {
		return nil, fmt.Errorf("%w: index count mismatch", ErrCorrupt)
	}
	// Every index entry takes at least two bytes (a key length and an
	// offset), so a count the section cannot hold is corrupt; checking it
	// here keeps a forged count from sizing the allocation below.
	if count > uint64(len(indexBytes))/2 {
		return nil, fmt.Errorf("%w: index count %d exceeds index section", ErrCorrupt, count)
	}
	r := &Reader{
		path:    path,
		f:       f,
		index:   make([]indexEntry, count),
		dataOff: int64(len(magic)),
		dataLen: int64(indexOff) - int64(len(magic)),
		crc:     crc,
		count:   int(count),
	}
	b := indexBytes[w:]
	for i := range r.index {
		klen, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, fmt.Errorf("%w: index entry %d", ErrCorrupt, i)
		}
		b = b[w:]
		if klen > uint64(len(b)) {
			return nil, fmt.Errorf("%w: index key %d", ErrCorrupt, i)
		}
		key := b[:klen:klen]
		b = b[klen:]
		off, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, fmt.Errorf("%w: index offset %d", ErrCorrupt, i)
		}
		b = b[w:]
		r.index[i] = indexEntry{key: key, off: off}
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Path returns the table's file path.
func (r *Reader) Path() string { return r.path }

// Count returns the number of entries (tombstones included).
func (r *Reader) Count() int { return r.count }

// Get returns the value for key. tombstone is true when the table records a
// deletion for the key; ok is false when the table has no entry at all.
func (r *Reader) Get(key []byte) (value []byte, tombstone, ok bool, err error) {
	i := sort.Search(len(r.index), func(i int) bool {
		return bytes.Compare(r.index[i].key, key) >= 0
	})
	if i >= len(r.index) || !bytes.Equal(r.index[i].key, key) {
		return nil, false, false, nil
	}
	e, err := r.readEntry(i)
	if err != nil {
		return nil, false, false, err
	}
	if e.Tombstone {
		return nil, true, true, nil
	}
	return e.Value, false, true, nil
}

// span returns the data-section extent of entry i: from its offset to the
// next entry's, or to the end of the data section for the last entry.
func (r *Reader) span(i int) (off, end uint64, err error) {
	off, end = r.index[i].off, uint64(r.dataLen)
	if i+1 < len(r.index) {
		end = r.index[i+1].off
	}
	if off >= end || end > uint64(r.dataLen) {
		return 0, 0, fmt.Errorf("%w: entry %d spans [%d, %d) of %d data bytes", ErrCorrupt, i, off, end, r.dataLen)
	}
	return off, end, nil
}

// readEntry reads entry i with one ReadAt into one buffer that its key and
// value share.
func (r *Reader) readEntry(i int) (memtable.Entry, error) {
	off, end, err := r.span(i)
	if err != nil {
		return memtable.Entry{}, err
	}
	buf := make([]byte, end-off)
	if _, err := r.f.ReadAt(buf, r.dataOff+int64(off)); err != nil {
		return memtable.Entry{}, fmt.Errorf("sstable: read entry %d of %s: %w", i, r.path, err)
	}
	return r.decodeEntry(i, buf)
}

// decodeEntry decodes entry i from b, which holds exactly its span: an
// entry that does not fill its span is corrupt. The returned key and value
// alias b.
func (r *Reader) decodeEntry(i int, b []byte) (memtable.Entry, error) {
	klen, n := binary.Uvarint(b)
	if n <= 0 {
		return memtable.Entry{}, fmt.Errorf("%w: entry %d key length", ErrCorrupt, i)
	}
	b = b[n:]
	if klen >= uint64(len(b)) { // the flag byte follows the key
		return memtable.Entry{}, fmt.Errorf("%w: entry %d key", ErrCorrupt, i)
	}
	e := memtable.Entry{Key: b[:klen:klen]}
	if !bytes.Equal(e.Key, r.index[i].key) {
		return memtable.Entry{}, fmt.Errorf("%w: entry %d key differs from its index key", ErrCorrupt, i)
	}
	flag := b[klen]
	b = b[klen+1:]
	if flag == 1 {
		if len(b) != 0 {
			return memtable.Entry{}, fmt.Errorf("%w: entry %d tombstone", ErrCorrupt, i)
		}
		e.Tombstone = true
		return e, nil
	}
	vlen, n := binary.Uvarint(b)
	if n <= 0 {
		return memtable.Entry{}, fmt.Errorf("%w: entry %d value length", ErrCorrupt, i)
	}
	b = b[n:]
	if vlen != uint64(len(b)) {
		return memtable.Entry{}, fmt.Errorf("%w: entry %d value", ErrCorrupt, i)
	}
	e.Value = b
	return e, nil
}

// Iterator walks a table's entries in ascending key order from a Seek
// position; the bounded scan merge advances one entry at a time so it can
// stop as soon as the limit is reached instead of reading the whole table.
type Iterator struct {
	r   *Reader
	pos int
}

// Seek returns an iterator positioned at the first entry with key >= start
// (nil start means the table's first entry).
func (r *Reader) Seek(start []byte) *Iterator {
	pos := 0
	if start != nil {
		pos = sort.Search(len(r.index), func(i int) bool {
			return bytes.Compare(r.index[i].key, start) >= 0
		})
	}
	return &Iterator{r: r, pos: pos}
}

// Next returns the entry under the cursor and advances; ok is false when
// the table is exhausted.
func (it *Iterator) Next() (e memtable.Entry, ok bool, err error) {
	if it.pos >= len(it.r.index) {
		return memtable.Entry{}, false, nil
	}
	e, err = it.r.readEntry(it.pos)
	if err != nil {
		return memtable.Entry{}, false, err
	}
	it.pos++
	return e, true, nil
}

// Iterate calls fn on every entry in key order; returning false stops. It
// reads the data section once and decodes every entry from that buffer,
// which the entries passed to fn alias.
func (r *Reader) Iterate(fn func(e memtable.Entry) bool) error {
	data, err := r.readData()
	if err != nil {
		return err
	}
	for i := range r.index {
		off, end, err := r.span(i)
		if err != nil {
			return err
		}
		e, err := r.decodeEntry(i, data[off:end:end])
		if err != nil {
			return err
		}
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// readData reads the whole data section.
func (r *Reader) readData() ([]byte, error) {
	data := make([]byte, r.dataLen)
	if _, err := r.f.ReadAt(data, r.dataOff); err != nil {
		return nil, fmt.Errorf("sstable: read data section of %s: %w", r.path, err)
	}
	return data, nil
}

// VerifyChecksum re-reads the data section and validates it against the
// footer CRC — the fsck-style partition check the watchdog runs (§2).
func (r *Reader) VerifyChecksum() error {
	data, err := r.readData()
	if err != nil {
		return err
	}
	if crc32.Checksum(data, castagnoli) != r.crc {
		return fmt.Errorf("%w: data checksum mismatch in %s", ErrCorrupt, r.path)
	}
	return nil
}

// Merge k-way-merges the given tables (newest first: tables[0] shadows
// tables[1], etc.) into a new table at outPath. When dropTombstones is true
// (a full compaction), deletions are discarded instead of propagated.
func Merge(outPath string, newestFirst []*Reader, dropTombstones bool) error {
	type cursor struct {
		entries []memtable.Entry
		pos     int
		prio    int // lower = newer
	}
	cursors := make([]*cursor, 0, len(newestFirst))
	for prio, r := range newestFirst {
		var es []memtable.Entry
		if err := r.Iterate(func(e memtable.Entry) bool {
			es = append(es, e)
			return true
		}); err != nil {
			return err
		}
		cursors = append(cursors, &cursor{entries: es, prio: prio})
	}
	var out []memtable.Entry
	for {
		// Find the smallest key among cursors; among ties the newest wins.
		var best *cursor
		for _, c := range cursors {
			if c.pos >= len(c.entries) {
				continue
			}
			if best == nil {
				best = c
				continue
			}
			cmp := bytes.Compare(c.entries[c.pos].Key, best.entries[best.pos].Key)
			if cmp < 0 || (cmp == 0 && c.prio < best.prio) {
				best = c
			}
		}
		if best == nil {
			break
		}
		e := best.entries[best.pos]
		// Advance every cursor past this key (shadowed duplicates).
		for _, c := range cursors {
			for c.pos < len(c.entries) && bytes.Equal(c.entries[c.pos].Key, e.Key) {
				c.pos++
			}
		}
		if e.Tombstone && dropTombstones {
			continue
		}
		out = append(out, e)
	}
	return Write(outPath, out)
}
