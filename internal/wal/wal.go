// Package wal implements a write-ahead log with CRC-framed records.
//
// The log is the durability substrate of the kvs target system. Each record
// is framed as a 4-byte little-endian length, a 4-byte CRC32C of the
// payload, and the payload itself. Replay stops cleanly at the first
// corrupt or torn frame, which models crash-recovery semantics: everything
// before the tear is intact, everything after is discarded.
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

const frameHeader = 8 // 4-byte length + 4-byte CRC

// Log is an append-only write-ahead log. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
	recs int64
	gen  uint64 // Reset count (Generation)
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
	good, recs, err := l.scan()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.size = good
	l.recs = recs
	return l, nil
}

// scan walks the file and returns the offset after the last intact record
// and the number of intact records.
func (l *Log) scan() (int64, int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var off, recs int64
	hdr := make([]byte, frameHeader)
	for {
		if _, err := io.ReadFull(l.f, hdr); err != nil {
			return off, recs, nil // clean EOF or torn header: stop here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<30 {
			return off, recs, nil // implausible length: treat as tear
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(l.f, payload); err != nil {
			return off, recs, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, recs, nil
		}
		off += frameHeader + int64(n)
		recs++
	}
}

// Append writes one record. The record is durable only after Sync.
func (l *Log) Append(payload []byte) error {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: closed")
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.recs++
	return nil
}

// Sync flushes appended records to stable storage. On success every byte
// appended before the call is durable.
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
		return errors.New("wal: closed")
	}
	f := l.f
	hook := l.syncHook
	l.mu.Unlock()
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

// Size returns the log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of intact records.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Replay invokes fn on every intact record in order. Replay is safe while
// appends are paused; it reopens the file read-only so the append offset is
// unaffected.
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
	hdr := make([]byte, frameHeader)
	var off int64
	for off < size {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return nil
		}
		if err := fn(payload); err != nil {
			return err
		}
		off += frameHeader + int64(n)
	}
	return nil
}

// Verify re-reads the whole log, validating every frame. It returns
// ErrCorrupt (wrapped with the offset) if an intact-range frame fails its
// checksum — the partition-corruption check the paper's kvs example runs.
func (l *Log) Verify() error {
	_, err := l.VerifyFrom(0)
	return err
}

// VerifyFrom validates the frames from offset off, which must be a frame
// boundary, to the end of the log as of the call, and returns the offset it
// verified up to: an incremental checker passes it back as the next off and
// re-reads nothing it has already verified. Errors are as for Verify.
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
	r := bufio.NewReaderSize(f, 64<<10)
	hdr := make([]byte, frameHeader)
	var payload []byte
	for off < size {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return off, fmt.Errorf("wal: truncated frame at %d: %w", off, ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<30 {
			return off, fmt.Errorf("wal: implausible length at %d: %w", off, ErrCorrupt)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, fmt.Errorf("wal: truncated payload at %d: %w", off, ErrCorrupt)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, fmt.Errorf("wal: bad checksum at %d: %w", off, ErrCorrupt)
		}
		off += frameHeader + int64(n)
	}
	return off, nil
}

// Generation counts the log's rewinds: it advances on every Reset, so an
// offset recorded under one generation means nothing under the next.
func (l *Log) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Reset truncates the log to empty (called after a successful flush to an
// SSTable makes the logged records redundant).
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.size = 0
	l.recs = 0
	l.gen++
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }
