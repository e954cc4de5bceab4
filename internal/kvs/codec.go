// Package kvs implements the paper's running example (Figure 1): a
// key-value store with a simple interface — GET, SET, APPEND, DEL — and
// complex internals: request listener, indexer (memtable), disk flusher,
// compaction manager, replication engine, and partition manager.
//
// Every long-running component carries named fault points (see the
// faultPoint* constants) so experiments can plant the gray failures the
// paper motivates: a stuck compaction, a partially failed disk, a wedged
// replication stream, silent partition corruption.
//
// When a watchdog context factory is configured, the components execute
// watchdog hooks at the points the AutoWatchdog generator would instrument:
// right before vulnerable operations, capturing the operation's arguments
// into the matching checker's context.
package kvs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Operation codes for WAL and replication records.
const (
	opSet byte = 1
	opDel byte = 2
)

// record is one logical mutation, the unit of WAL logging and replication.
type record struct {
	op    byte
	key   []byte
	value []byte
}

// encodeRecord renders r as: op byte | uvarint klen | key | uvarint vlen | value.
func encodeRecord(r record) []byte {
	buf, _ := encodeOwned(r)
	return buf
}

// encodeOwned is encodeRecord that also returns r with key and value
// re-pointed into the encoded payload. The group committer queues that
// copy: the caller's key and value may sit in a connection's read buffer,
// which is reused as soon as the reader moves on to the next request.
func encodeOwned(r record) ([]byte, record) {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(r.key)+len(r.value))
	buf = append(buf, r.op)
	buf = binary.AppendUvarint(buf, uint64(len(r.key)))
	buf = append(buf, r.key...)
	keyEnd := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(r.value)))
	buf = append(buf, r.value...)
	return buf, record{
		op:    r.op,
		key:   buf[keyEnd-len(r.key) : keyEnd : keyEnd],
		value: buf[len(buf)-len(r.value):],
	}
}

// errBadRecord is returned when a record fails to decode.
var errBadRecord = errors.New("kvs: malformed record")

// decodeRecord parses the encodeRecord format.
func decodeRecord(buf []byte) (record, error) {
	if len(buf) < 1 {
		return record{}, errBadRecord
	}
	r := record{op: buf[0]}
	if r.op != opSet && r.op != opDel {
		return record{}, fmt.Errorf("%w: op %d", errBadRecord, r.op)
	}
	rest := buf[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < klen {
		return record{}, fmt.Errorf("%w: key length", errBadRecord)
	}
	rest = rest[n:]
	r.key = append([]byte(nil), rest[:klen]...)
	rest = rest[klen:]
	vlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < vlen {
		return record{}, fmt.Errorf("%w: value length", errBadRecord)
	}
	rest = rest[n:]
	if uint64(len(rest)) != vlen {
		return record{}, fmt.Errorf("%w: trailing bytes", errBadRecord)
	}
	r.value = append([]byte(nil), rest[:vlen]...)
	return r, nil
}
