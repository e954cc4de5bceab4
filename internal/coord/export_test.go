package coord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Tree exposes the follower's data tree.
func (f *Follower) Tree() *DataTree { return f.tree }

// Applied returns the number of proposals applied.
func (f *Follower) Applied() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Dir returns the snapshot directory.
func (s *SnapshotService) Dir() string { return s.dir }

// RestoreLatest loads the newest snapshot from dir into a fresh tree; ok is
// false when no snapshot exists.
func RestoreLatest(dir string) (*DataTree, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, err
	}
	var newest string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap") && name > newest {
			newest = name
		}
	}
	if newest == "" {
		return nil, false, nil
	}
	f, err := os.Open(filepath.Join(dir, newest))
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	tree, err := RestoreSnapshot(f)
	if err != nil {
		return nil, false, err
	}
	return tree, true, nil
}

// SerializedCount returns the number of nodes written by the last snapshot —
// Figure 2's scount.
func (t *DataTree) SerializedCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scount
}

// TxnLogRecords returns the number of intact transactions in the log (0
// when no log is configured).
func (l *Leader) TxnLogRecords() int64 {
	if l.txnLog == nil {
		return 0
	}
	return l.txnLog.Records()
}

// Expired returns the total number of sessions expired so far.
func (st *SessionTable) Expired() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.expired
}

// ErrSnapshotCorrupt is returned when a snapshot fails to parse.
var ErrSnapshotCorrupt = errors.New("coord: corrupt snapshot")

// readRecord decodes one WriteRecord frame.
func readRecord(r *bufio.Reader) (string, []byte, error) {
	plen, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return "", nil, io.EOF // clean end of snapshot
	}
	if err != nil {
		return "", nil, fmt.Errorf("%w: path length: %v", ErrSnapshotCorrupt, err)
	}
	if plen > 1<<20 {
		return "", nil, fmt.Errorf("%w: path length %d", ErrSnapshotCorrupt, plen)
	}
	pbuf := make([]byte, plen)
	if _, err := io.ReadFull(r, pbuf); err != nil {
		return "", nil, fmt.Errorf("%w: path", ErrSnapshotCorrupt)
	}
	dlen, err := binary.ReadUvarint(r)
	if err != nil {
		return "", nil, fmt.Errorf("%w: data length", ErrSnapshotCorrupt)
	}
	if dlen > 1<<30 {
		return "", nil, fmt.Errorf("%w: data length %d", ErrSnapshotCorrupt, dlen)
	}
	data := make([]byte, dlen)
	if _, err := io.ReadFull(r, data); err != nil {
		return "", nil, fmt.Errorf("%w: data", ErrSnapshotCorrupt)
	}
	return string(pbuf), data, nil
}

// RestoreSnapshot rebuilds a tree from a serialized snapshot.
func RestoreSnapshot(r io.Reader) (*DataTree, error) {
	t := NewDataTree()
	br := bufio.NewReader(r)
	for {
		p, data, err := readRecord(br)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if p == "/" {
			continue
		}
		if err := t.Create(p, data); err != nil {
			return nil, fmt.Errorf("%w: restore %s: %v", ErrSnapshotCorrupt, p, err)
		}
	}
}
