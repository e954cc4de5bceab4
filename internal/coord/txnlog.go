package coord

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"gowatchdog/internal/wal"
)

// FaultLogAppend models the transaction-log volume: the disk write the
// sync request processor performs before replicating (ZooKeeper's
// SyncRequestProcessor exists to sync the txn log — hence its name).
const FaultLogAppend = "coord.log.append"

// encodeTxn renders one committed operation for the transaction log:
// op byte | uvarint pathLen | path | uvarint dataLen | data | 8B zxid.
func encodeTxn(op byte, path string, data []byte, zxid int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(path)+len(data)+8)
	out = append(out, op)
	n := binary.PutUvarint(tmp[:], uint64(len(path)))
	out = append(out, tmp[:n]...)
	out = append(out, path...)
	n = binary.PutUvarint(tmp[:], uint64(len(data)))
	out = append(out, tmp[:n]...)
	out = append(out, data...)
	var z [8]byte
	binary.BigEndian.PutUint64(z[:], uint64(zxid))
	out = append(out, z[:]...)
	return out
}

// decodeTxn reverses encodeTxn.
func decodeTxn(payload []byte) (op byte, path string, data []byte, zxid int64, err error) {
	if len(payload) < 1+8 {
		return 0, "", nil, 0, fmt.Errorf("coord: short txn record")
	}
	op = payload[0]
	rest := payload[1 : len(payload)-8]
	plen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < plen {
		return 0, "", nil, 0, fmt.Errorf("coord: bad txn path length")
	}
	rest = rest[n:]
	path = string(rest[:plen])
	rest = rest[plen:]
	dlen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) != dlen {
		return 0, "", nil, 0, fmt.Errorf("coord: bad txn data length")
	}
	data = append([]byte(nil), rest[n:]...)
	zxid = int64(binary.BigEndian.Uint64(payload[len(payload)-8:]))
	return op, path, data, zxid, nil
}

// openTxnLog opens (or recovers) the leader's transaction log and replays
// committed transactions into the tree. It returns the highest zxid seen.
func (l *Leader) openTxnLog(dir string) (int64, error) {
	log, err := wal.Open(filepath.Join(dir, "txn.log"))
	if err != nil {
		return 0, err
	}
	var maxZxid int64
	err = log.Replay(func(payload []byte) error {
		op, path, data, zxid, err := decodeTxn(payload)
		if err != nil {
			return err
		}
		// Replay is idempotent-ish: recovery applies in commit order; an
		// individual application error (e.g. create of an existing node
		// after a snapshot restore) is tolerated.
		switch op {
		case proposalCreate:
			l.tree.Create(path, data)
		case proposalSet:
			l.tree.Set(path, data)
		case proposalDelete:
			l.tree.Delete(path)
		}
		if zxid > maxZxid {
			maxZxid = zxid
		}
		return nil
	})
	if err != nil {
		log.Close()
		return 0, fmt.Errorf("coord: txn log replay: %w", err)
	}
	l.txnLog = log
	return maxZxid, nil
}

// logTxn appends one transaction durably — the sync processor's disk write.
func (l *Leader) logTxn(req *request) error {
	if l.txnLog == nil {
		return nil
	}
	if l.factory != nil {
		l.factory.Context("coord.log").PutAll(map[string]any{
			"path": req.path,
			"zxid": req.zxid,
		})
	}
	if err := l.inj.Fire(FaultLogAppend); err != nil {
		return err
	}
	if err := l.txnLog.Append(encodeTxn(proposalOp(req.op), req.path, req.data, req.zxid)); err != nil {
		return err
	}
	return l.txnLog.Sync()
}

// TruncateTxnLog resets the transaction log; the snapshot service calls it
// after a successful snapshot makes the logged transactions redundant.
func (l *Leader) TruncateTxnLog() error {
	if l.txnLog == nil {
		return nil
	}
	return l.txnLog.Reset()
}
