// Package wal implements a write-ahead log with CRC-framed records.
//
// The log is the durability substrate of the kvs target system. Each record
// is framed as a 4-byte little-endian length, a 4-byte CRC32C of the
// payload, and the payload itself. Replay stops cleanly at the first
// corrupt or torn frame, which models crash-recovery semantics: everything
// before the tear is intact, everything after is discarded.
//
// Append encodes frames into an in-memory tail; Flush, Sync and Close write
// the tail with one write, and Append writes it first when the next frame
// would take it past 64 KiB. A failed or short write cuts the file back to
// the last whole frame and drops the tail, so no frame ever lands behind a
// torn one. Readers (Open's scan, Replay, VerifyFrom) see written frames
// only.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned by Verify when a frame fails its checksum.
var ErrCorrupt = errors.New("wal: corrupt record")

var errClosed = errors.New("wal: closed")

const frameHeader = 8 // 4-byte length + 4-byte CRC

// tailCap is how many bytes of frames the tail holds before Append writes
// it: the most a process crash can take of records a caller never synced.
const tailCap = 64 << 10

// Log is an append-only write-ahead log. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // bytes written to the file: every frame a reader sees
	recs int64 // records written to the file
	gen  uint64
	// tail holds the encoded frames appended since the last write, tailRecs
	// of them.
	tail     []byte
	tailRecs int64
	// A failed write drops the tail, and with it frames that callers other
	// than the failing one appended. Their loss waits here for the next
	// Flush (flushLoss) and the next Flush or Sync (syncLoss) to report it.
	flushLoss, syncLoss error
	// syncHook, when set, runs inside Sync immediately before the fsync; a
	// non-nil error aborts the sync. Tests use it to fail or count syncs
	// (group-commit coalescing and crash-consistency fault injection).
	syncHook func() error
}

// Open opens or creates the log at path and positions appends after the
// last intact record, truncating any torn tail.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{f: f, path: path}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return l, nil
}

// scan walks the file and sets size and recs to the end and the count of
// its intact prefix.
func (l *Log) scan() error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	l.size, _ = readFrames(l.f, 0, st.Size(), false, func([]byte) error {
		l.recs++
		return nil
	})
	return nil
}

// readFrames reads frames from r, which is positioned at offset off, up to
// offset end, calling fn on each intact payload. It returns the offset
// after the last frame it accepted and, when it stopped short of end, why:
// ErrCorrupt wrapped with the offset of the torn or damaged frame, or fn's
// own error. A frame's length is checked against the bytes left before end
// before anything is allocated for it, so a forged length costs nothing.
// With fresh set every payload is a new slice fn may keep; otherwise one
// buffer is reused.
func readFrames(r io.Reader, off, end int64, fresh bool, fn func([]byte) error) (int64, error) {
	if off >= end {
		return off, nil
	}
	br := bufio.NewReaderSize(r, int(min(end-off, 64<<10)))
	var hdr [frameHeader]byte
	var buf []byte
	for off < end {
		if end-off < frameHeader {
			return off, fmt.Errorf("wal: truncated frame at %d: %w", off, ErrCorrupt)
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, fmt.Errorf("wal: truncated frame at %d: %w", off, ErrCorrupt)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > end-off-frameHeader {
			return off, fmt.Errorf("wal: truncated payload at %d (length %d): %w", off, n, ErrCorrupt)
		}
		if fresh || int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, fmt.Errorf("wal: truncated payload at %d: %w", off, ErrCorrupt)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, fmt.Errorf("wal: bad checksum at %d: %w", off, ErrCorrupt)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeader + n
	}
	return off, nil
}

// Append adds one record to the in-memory tail; it makes no syscall unless
// the frame would take the tail past 64 KiB, in which case it writes the
// tail first. If that write fails, the record is not added and Append
// returns the error. The record reaches the file at the next write and is
// durable only after Sync.
func (l *Log) Append(payload []byte) error {
	sum := crc32.Checksum(payload, castagnoli)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if len(l.tail) > 0 && len(l.tail)+frameHeader+len(payload) > tailCap {
		if err := l.writeLocked(); err != nil {
			return err
		}
	}
	l.tail = binary.LittleEndian.AppendUint32(l.tail, uint32(len(payload)))
	l.tail = binary.LittleEndian.AppendUint32(l.tail, sum)
	l.tail = append(l.tail, payload...)
	l.tailRecs++
	return nil
}

// writeLocked writes the tail at the end of the written frames. A failed or
// short write truncates the file back to that end and drops the tail, so
// no frame written later can land behind a torn one, and it records the
// loss for the next Flush and Sync. Callers hold l.mu.
func (l *Log) writeLocked() error {
	if len(l.tail) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.tail, l.size); err != nil {
		err = fmt.Errorf("wal: write: %w", err)
		if terr := l.f.Truncate(l.size); terr != nil {
			err = fmt.Errorf("%w; cutting back the torn frame: %v", err, terr)
		}
		l.dropTail()
		l.flushLoss, l.syncLoss = err, err
		return err
	}
	l.size += int64(len(l.tail))
	l.recs += l.tailRecs
	l.dropTail()
	return nil
}

// dropTail empties the tail, keeping its buffer unless one oversized record
// grew it past twice the cap. Callers hold l.mu.
func (l *Log) dropTail() {
	l.tail = l.tail[:0]
	if cap(l.tail) > 2*tailCap {
		l.tail = nil
	}
	l.tailRecs = 0
}

// Flush writes the tail to the file without syncing it. It returns an
// error when a frame appended since the previous Flush was lost, to its own
// write or an earlier one, and then drops the frames still in the tail as
// well: the caller fails them all. The group-commit leader calls it to
// write exactly its batch.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	err := l.writeUnlessLostLocked(l.flushLoss)
	l.flushLoss, l.syncLoss = nil, nil
	return err
}

// writeUnlessLostLocked writes the tail, or, when loss reports frames
// already lost, drops it and returns loss, so the frames appended after
// the loss fail with those before it. Callers hold l.mu.
func (l *Log) writeUnlessLostLocked(loss error) error {
	if loss != nil {
		l.dropTail()
		return loss
	}
	return l.writeLocked()
}

// Sync writes the tail and flushes the file to stable storage. On success
// every record appended before the call is durable. Like Flush it returns
// an error, and drops the tail, when a frame appended since the previous
// Flush or Sync was lost.
//
// The lock is released for the fsync itself so concurrent Appends proceed
// while the disk flush is in flight — this is what lets the group committer
// accumulate the next batch during the current sync instead of convoying
// every writer behind the syscall. Durability is unaffected: the fsync
// covers every byte written before the call.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.f == nil {
		l.mu.Unlock()
		return errClosed
	}
	err := l.writeUnlessLostLocked(l.syncLoss)
	l.syncLoss = nil
	f := l.f
	hook := l.syncHook
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	return f.Sync()
}

// SetSyncHook installs fn to run inside every Sync immediately before the
// fsync; a non-nil error fails the sync. It is
// test instrumentation for group-commit coalescing counts and sync-failure
// crash consistency; pass nil to remove.
func (l *Log) SetSyncHook(fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncHook = fn
}

// Size returns the log size in bytes, counting the frames still in the
// tail.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size + int64(len(l.tail))
}

// Records returns the number of records in the log, counting those still
// in the tail.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs + l.tailRecs
}

// Replay invokes fn on every intact written record in order; records still
// in the tail are not replayed. Replay is safe while appends are paused; it
// reopens the file read-only so the append offset is unaffected.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	path := l.path
	size := l.size
	l.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var fnErr error
	readFrames(f, 0, size, true, func(payload []byte) error {
		fnErr = fn(payload)
		return fnErr
	})
	return fnErr
}

// Verify re-reads the whole log, validating every frame. It returns
// ErrCorrupt (wrapped with the offset) if an intact-range frame fails its
// checksum — the partition-corruption check the paper's kvs example runs.
func (l *Log) Verify() error {
	_, err := l.VerifyFrom(0)
	return err
}

// VerifyFrom validates the frames from offset off, which must be a frame
// boundary, to the end of the written log as of the call, and returns the
// offset it verified up to: an incremental checker passes it back as the
// next off and re-reads nothing it has already verified. Errors are as for
// Verify. It never writes the tail: a checker does none of the log's I/O.
//
// The read does not exclude a concurrent Reset: a frame that vanishes or
// changes under it shows up as an error. Callers tell that rewind from
// corruption by comparing Generation before and after the call.
func (l *Log) VerifyFrom(off int64) (int64, error) {
	l.mu.Lock()
	path := l.path
	size := l.size
	l.mu.Unlock()
	if off >= size {
		return off, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return off, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return off, err
	}
	return readFrames(f, off, size, false, func([]byte) error { return nil })
}

// Generation counts the log's rewinds: it advances on every Reset, so an
// offset recorded under one generation means nothing under the next.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Reset truncates the log to empty and drops the tail (called after a
// successful flush to an SSTable makes the logged records redundant).
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	l.dropTail()
	l.flushLoss, l.syncLoss = nil, nil
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	l.recs = 0
	l.gen++
	return l.f.Sync()
}

// Close writes the tail and closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.writeLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }
