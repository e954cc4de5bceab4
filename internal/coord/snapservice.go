package coord

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// SnapshotService periodically serializes the leader's data tree to disk —
// the long-running snapshot region of Figure 2 (ZooKeeper's
// SyncRequestProcessor snapshot path). Each run executes the watchdog hook
// per node and passes through the FaultSnapshotWrite point, so the
// coord.snapshot checker's context stays synchronized with real snapshot
// activity.
type SnapshotService struct {
	leader   *Leader
	dir      string
	interval time.Duration
	keep     int

	stop chan struct{}
	done chan struct{}
}

// StartSnapshotService begins periodic snapshots into dir, keeping the most
// recent `keep` snapshot files (default 2). It returns an error if dir
// cannot be created.
func (l *Leader) StartSnapshotService(dir string, interval time.Duration, keep int) (*SnapshotService, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("coord: snapshot dir: %w", err)
	}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	if keep <= 0 {
		keep = 2
	}
	s := &SnapshotService{
		leader:   l,
		dir:      dir,
		interval: interval,
		keep:     keep,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Close stops the service.
func (s *SnapshotService) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
		// A snapshot wedged on an injected fault is abandoned.
	}
}

func (s *SnapshotService) run() {
	defer close(s.done)
	tick := s.leader.clk.NewTicker(s.interval)
	defer tick.Stop()
	seq := 0
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C():
			seq++
			if err := s.SnapshotOnce(seq); err != nil {
				s.leader.mets.Counter("coord.snapshot.errors").Inc()
				continue
			}
			s.leader.mets.Counter("coord.snapshots").Inc()
			// A durable snapshot makes the logged transactions redundant.
			if err := s.leader.TruncateTxnLog(); err != nil {
				s.leader.mets.Counter("coord.snapshot.errors").Inc()
			}
			s.prune()
		}
	}
}

// SnapshotOnce serializes one snapshot with the given sequence number.
func (s *SnapshotService) SnapshotOnce(seq int) error {
	path := filepath.Join(s.dir, fmt.Sprintf("snapshot-%08d.snap", seq))
	return s.leader.tree.SnapshotToFile(path, s.leader.inj, s.leader.factory)
}

// Snapshots returns the snapshot file names, oldest first.
func (s *SnapshotService) Snapshots() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot-") && strings.HasSuffix(e.Name(), ".snap") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// prune removes all but the newest `keep` snapshots.
func (s *SnapshotService) prune() {
	snaps, err := s.Snapshots()
	if err != nil {
		return
	}
	for len(snaps) > s.keep {
		os.Remove(filepath.Join(s.dir, snaps[0]))
		snaps = snaps[1:]
	}
}
