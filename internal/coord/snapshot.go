package coord

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

// FaultSnapshotWrite is the fault point on the snapshot record write — the
// vulnerable operation AutoWatchdog identifies at Figure 2 line 20
// (oa.writeRecord(node, "node")).
const FaultSnapshotWrite = "coord.snapshot.write"

// WriteRecord serializes one node record — the analog of
// OutputArchive.writeRecord from Figure 2. It is exported because the
// reduced checker (Figure 3) invokes exactly this operation.
func WriteRecord(w io.Writer, nodePath string, data []byte) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(nodePath)))
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	if _, err := w.Write([]byte(nodePath)); err != nil {
		return err
	}
	n = binary.PutUvarint(tmp[:], uint64(len(data)))
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return nil
}

// SerializeSnapshot walks the tree and writes every node record to w — the
// analog of Figure 2's SyncRequestProcessor.serializeSnapshot /
// DataTree.serialize / serializeNode chain. Before each vulnerable
// writeRecord it executes the watchdog hook (Figure 2's inserted
// ContextFactory.serializeSnapshot_reduced_args_setter), then fires the
// fault point modelling the snapshot volume.
func (t *DataTree) SerializeSnapshot(w io.Writer, inj *faultinject.Injector,
	factory *watchdog.Factory) error {
	t.mu.Lock()
	t.scount = 0
	t.mu.Unlock()
	for _, p := range t.Paths() {
		data, _, err := t.Get(p)
		if err != nil {
			continue // concurrently deleted
		}
		// Watchdog hook: capture the writeRecord arguments (§4.1 "insert
		// context API hooks in P to synchronize state").
		if factory != nil {
			factory.Context("coord.snapshot").PutAll(map[string]any{
				"path": p,
				"data": data,
			})
		}
		t.mu.Lock()
		t.scount++
		t.mu.Unlock()
		if inj != nil {
			if err := inj.Fire(FaultSnapshotWrite); err != nil {
				return fmt.Errorf("serialize %s: %w", p, err)
			}
		}
		if err := WriteRecord(w, p, data); err != nil {
			return fmt.Errorf("serialize %s: %w", p, err)
		}
	}
	return nil
}

// SnapshotToFile serializes the tree to a file with fsync.
func (t *DataTree) SnapshotToFile(path string, inj *faultinject.Injector,
	factory *watchdog.Factory) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.SerializeSnapshot(bw, inj, factory); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
