package wdmesh

import (
	"context"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

var update = flag.Bool("update", false, "rewrite golden files")

// frameLog is a Transport that folds every frame it sends — sender, target,
// Full flag, and each relayed digest's node, epoch and seq in emitted order —
// into a shared hash, so the trajectory pins frame contents, not just counts.
type frameLog struct {
	Transport
	self string
	h    hash.Hash64
}

func (f frameLog) Send(ctx context.Context, peer string, msg *Message) error {
	fmt.Fprintf(f.h, "%s>%s full=%v self=%d", f.self, peer, msg.Full, msg.Self.Seq)
	for i := range msg.Known {
		d := &msg.Known[i]
		fmt.Fprintf(f.h, " %s@%d.%d", d.Node, d.Epoch, d.Seq)
	}
	fmt.Fprintf(f.h, " obs=%v\n", msg.Obs)
	return f.Transport.Send(ctx, peer, msg)
}

// trajectoryCluster runs the golden trajectory scenario: n Step-mode nodes
// whose Peers lists are shuffled per node, so a peer's index never matches
// its name order, with a small MaxDelta so the least-gossiped selection binds
// on most frames, and seeded lossy, duplicating and erroring links so acks,
// demotion and probes all move.
func trajectoryCluster(t *testing.T, n int) string {
	t.Helper()
	clk := clock.NewVirtual()
	inj := faultinject.New(clk)
	inj.Seed(7)
	net := NewMemNetwork(clk, inj)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%03d", i)
	}
	const interval = 100 * time.Millisecond
	sick := ""
	frames := fnv.New64a()
	build := func(i int, epoch int64) *Mesh {
		peers := make([]string, 0, n-1)
		for j, p := range names {
			if j != i {
				peers = append(peers, p)
			}
		}
		rand.New(rand.NewSource(int64(100+i))).Shuffle(len(peers), func(a, b int) {
			peers[a], peers[b] = peers[b], peers[a]
		})
		self := names[i]
		m, err := New(Config{
			Self:       self,
			Peers:      peers,
			Interval:   interval,
			Quorum:     2,
			Fanout:     3,
			MaxDelta:   6,
			Epoch:      epoch,
			JitterSeed: int64(500 + i),
			Clock:      clk,
			Transport:  frameLog{net.Node(self), self, frames},
			Source: func() Digest {
				if sick == self {
					return Digest{Healthy: false, Worst: watchdog.StatusStuck, Abnormal: []string{"applier"}}
				}
				return Digest{Healthy: true, Worst: watchdog.StatusHealthy}
			},
		})
		if err != nil {
			t.Fatalf("New(%s): %v", self, err)
		}
		return m
	}
	meshes := make([]*Mesh, n)
	for i := range meshes {
		meshes[i] = build(i, 1)
	}
	rng := rand.New(rand.NewSource(11))
	link := func() string {
		from := rng.Intn(n)
		to := rng.Intn(n - 1)
		if to >= from {
			to++
		}
		return LinkPoint(names[from], names[to])
	}
	for k := 0; k < 12; k++ {
		inj.Arm(link(), faultinject.Fault{Kind: faultinject.Drop, Prob: 0.25})
	}
	for k := 0; k < 4; k++ {
		inj.Arm(link(), faultinject.Fault{Kind: faultinject.Duplicate, Prob: 0.5})
	}
	for k := 0; k < 3; k++ {
		inj.Arm(link(), faultinject.Fault{Kind: faultinject.Error})
	}

	const victim, killed, late = 5, 11, 17
	var b strings.Builder
	for r := 0; r < 90; r++ {
		switch r {
		case 20:
			sick = names[victim]
		case 40:
			sick = ""
		case 45:
			meshes[killed].Close()
			meshes[killed] = nil
		case 70:
			meshes[killed] = build(killed, 2)
		case 80:
			sick = names[late] // still sick at the end: final verdicts stand
		}
		clk.Advance(interval)
		for _, m := range meshes {
			if m != nil {
				m.Step()
			}
		}
		var sent, deltas, fulls, raised, cleared int64
		for _, m := range meshes {
			if m == nil {
				continue
			}
			s := m.Snapshot()
			sent += s.MessagesSent
			deltas += s.DeltaEntries
			fulls += s.FullSyncs
			raised += s.VerdictsRaised
			cleared += s.VerdictsCleared
		}
		fmt.Fprintf(&b, "r%02d sent=%d delta=%d full=%d raised=%d cleared=%d frames=%016x\n",
			r, sent, deltas, fulls, raised, cleared, frames.Sum64())
	}
	for i, m := range meshes {
		for _, v := range m.Verdicts() {
			fmt.Fprintf(&b, "%s -> %s %s votes=%d worst=%s\n", names[i], v.Node, v.Kind, v.Votes, v.Worst)
		}
	}
	return b.String()
}

// TestStepTrajectoryGolden pins a seeded 24-node stepped run, round by round,
// to the trajectory recorded before the gossip hot path was restructured:
// sampling, ack suppression, MaxDelta selection, emit order and verdicts must
// all be unchanged. Refresh with -update only for an intended protocol change.
func TestStepTrajectoryGolden(t *testing.T) {
	got := trajectoryCluster(t, 24)
	path := filepath.Join("testdata", "step24-trajectory.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stepped trajectory drifted from %s:\n%s", path, got)
	}
}
