package wdmesh

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// stepCluster is a deterministically stepped mesh cluster on a virtual clock.
type stepCluster struct {
	clk      *clock.Virtual
	net      *MemNetwork
	names    []string
	meshes   map[string]*Mesh
	interval time.Duration
}

// newStepCluster builds n unstarted meshes (Step mode) with fanout k.
func newStepCluster(t testing.TB, n, k int, src func(name string) func() Digest) *stepCluster {
	t.Helper()
	c := &stepCluster{
		clk:      clock.NewVirtual(),
		names:    make([]string, n),
		meshes:   make(map[string]*Mesh, n),
		interval: 100 * time.Millisecond,
	}
	c.net = NewMemNetwork(c.clk, nil)
	for i := range c.names {
		c.names[i] = fmt.Sprintf("n%03d", i)
	}
	for _, name := range c.names {
		c.meshes[name] = c.addNode(t, name, k, 1, src)
	}
	return c
}

// addNode builds one Step-mode mesh for the cluster.
func (c *stepCluster) addNode(t testing.TB, name string, k int, epoch int64, src func(string) func() Digest) *Mesh {
	t.Helper()
	peers := make([]string, 0, len(c.names)-1)
	for _, p := range c.names {
		if p != name {
			peers = append(peers, p)
		}
	}
	m, err := New(Config{
		Self:       name,
		Peers:      peers,
		Interval:   c.interval,
		Quorum:     2,
		Fanout:     k,
		Epoch:      epoch,
		JitterSeed: 1000 + int64(name[1]-'0')*100 + int64(name[2]-'0')*10 + int64(name[3]-'0'),
		Clock:      c.clk,
		Transport:  c.net.Node(name),
		Source:     src(name),
	})
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return m
}

// step advances the virtual clock one interval and runs every mesh's round in
// deterministic (name) order.
func (c *stepCluster) step() {
	c.clk.Advance(c.interval)
	for _, name := range c.names {
		if m := c.meshes[name]; m != nil {
			m.Step()
		}
	}
}

// totals sums sent/raised across live nodes.
func (c *stepCluster) totals() (sent, raised, cleared int64) {
	for _, m := range c.meshes {
		if m == nil {
			continue
		}
		s := m.Snapshot()
		sent += s.MessagesSent
		raised += s.VerdictsRaised
		cleared += s.VerdictsCleared
	}
	return
}

func healthyByName() func(string) func() Digest {
	return func(string) func() Digest { return healthySource() }
}

// TestStepFanoutConvergenceAndVolume: a 24-node fanout-3 cluster stepped on
// the virtual clock must converge (every node holds a digest for every other)
// with zero verdicts, while sending O(N·K) messages per round instead of the
// full mesh's O(N²).
func TestStepFanoutConvergenceAndVolume(t *testing.T) {
	const n, k, rounds = 24, 3, 40
	c := newStepCluster(t, n, k, healthyByName())
	for r := 0; r < rounds; r++ {
		c.step()
	}
	for _, name := range c.names {
		if got := c.meshes[name].KnownCount(); got != n-1 {
			t.Fatalf("%s knows %d digests after %d rounds, want %d", name, got, rounds, n-1)
		}
	}
	sent, raised, _ := c.totals()
	if raised != 0 {
		t.Fatalf("healthy cluster raised %d verdicts", raised)
	}
	// Per-round budget: fanout + anti-entropy extra target + probe slack.
	budget := int64(n * (k + 2) * rounds)
	baseline := int64(n * (n - 1) * rounds)
	if sent > budget {
		t.Fatalf("sent %d messages over %d rounds, budget %d (O(N·K))", sent, rounds, budget)
	}
	if sent*2 > baseline {
		t.Fatalf("sent %d messages, not meaningfully below full-mesh baseline %d", sent, baseline)
	}
}

// BenchmarkStep200 times one gossip round of a converged 200-node fanout-3
// cluster per iteration: every node builds, sends and absorbs its frames.
func BenchmarkStep200(b *testing.B) {
	c := newStepCluster(b, 200, 3, healthyByName())
	for r := 0; r < 20; r++ {
		c.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// convergedCluster50 is a healthy 50-node fanout-3 cluster stepped past
// convergence and through several anti-entropy cycles, so every frame buffer
// a round needs has been allocated once.
func convergedCluster50(t testing.TB) *stepCluster {
	c := newStepCluster(t, 50, 3, healthyByName())
	for r := 0; r < 5*antiEntropyEvery; r++ {
		c.step()
	}
	return c
}

// BenchmarkStep times one steady-state gossip round of a converged 50-node
// fanout-3 cluster per iteration.
func BenchmarkStep(b *testing.B) {
	c := convergedCluster50(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// stepBytesBound bounds what one steady-state round of convergedCluster50
// allocates. A round reuses its target list, its frame list and each
// frame's Known buffer, so it measured 13,600 B in 200 allocations
// (linux/amd64, go1.24): four per node-step, all for the round's one
// deadline context. The bound leaves a quarter of headroom over that.
const stepBytesBound = 17_000

// TestStepSteadyStateAllocs guards frame reuse and the per-round deadline:
// once a cluster has converged, a round reuses the frame list, the target
// list and the Known buffers of the frames it sent before, and builds one
// context per node-step, not one per frame.
func TestStepSteadyStateAllocs(t *testing.T) {
	c := convergedCluster50(t)
	const runs = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun pins GOMAXPROCS to 1 and adds one warm-up call.
	allocs := testing.AllocsPerRun(runs, c.step)
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("steady-state round of 50 nodes: %d B, %.0f allocs", perRound, allocs)
	if perRound > stepBytesBound {
		t.Fatalf("a steady-state round allocated %d B, want <= %d B: frame buffers or deadlines are not reused", perRound, stepBytesBound)
	}
}

// TestStepDeterminism runs the same seeded scenario twice — including a
// victim turning sick mid-run — and requires bit-identical counters and
// verdict sets: the property meshscale.Run's reproducible verdict relies on.
func TestStepDeterminism(t *testing.T) {
	run := func() string {
		sick := false
		src := func(name string) func() Digest {
			if name != "n002" {
				return healthySource()
			}
			return func() Digest {
				if sick {
					return Digest{Healthy: false, Worst: watchdog.StatusSlow, Abnormal: []string{"flusher"}}
				}
				return Digest{Healthy: true, Worst: watchdog.StatusHealthy}
			}
		}
		c := newStepCluster(t, 16, 3, src)
		var trace string
		for r := 0; r < 60; r++ {
			if r == 25 {
				sick = true
			}
			if r == 45 {
				sick = false
			}
			c.step()
			sent, raised, cleared := c.totals()
			trace += fmt.Sprintf("r%d:%d/%d/%d;", r, sent, raised, cleared)
		}
		for _, name := range c.names {
			for _, v := range c.meshes[name].Verdicts() {
				trace += fmt.Sprintf("%s->%s:%s;", name, v.Node, v.Kind)
			}
		}
		return trace
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different runs:\n%s\nvs\n%s", a, b)
	}
}

// TestStepIntrinsicVerdictAtFanout: with sampling (not full mesh), a sick
// node's wd-alarm digest must still reach quorum verdicts on every observer,
// and clear after recovery.
func TestStepIntrinsicVerdictAtFanout(t *testing.T) {
	const n = 16
	sick := false
	src := func(name string) func() Digest {
		if name != "n005" {
			return healthySource()
		}
		return func() Digest {
			if sick {
				return Digest{Healthy: false, Worst: watchdog.StatusStuck, Abnormal: []string{"applier"}}
			}
			return Digest{Healthy: true, Worst: watchdog.StatusHealthy}
		}
	}
	c := newStepCluster(t, n, 3, src)
	for r := 0; r < 30; r++ {
		c.step()
	}
	sick = true
	detected := func() bool {
		for _, name := range c.names {
			if name == "n005" {
				continue
			}
			ok := false
			for _, v := range c.meshes[name].Verdicts() {
				if v.Node == "n005" && v.Kind == VerdictIntrinsic {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	deadline := 80
	for r := 0; r < deadline && !detected(); r++ {
		c.step()
	}
	if !detected() {
		t.Fatalf("not every observer reached an intrinsic verdict within %d rounds", deadline)
	}
	// The victim stayed reachable throughout: its digests kept flowing.
	if obs := c.meshes["n000"].Observation("n005"); obs != ObsAlarming {
		t.Fatalf("n000 observes n005 as %q, want %q", obs, ObsAlarming)
	}
	sick = false
	cleared := func() bool {
		for _, name := range c.names {
			if len(c.meshes[name].Verdicts()) != 0 {
				return false
			}
		}
		return true
	}
	for r := 0; r < deadline && !cleared(); r++ {
		c.step()
	}
	if !cleared() {
		t.Fatalf("verdicts did not clear within %d rounds of recovery", deadline)
	}
}

// TestAntiEntropyRepairsRejoin kills a node, lets the cluster convict it,
// then rejoins it with a fresh epoch and empty state. Anti-entropy and the
// epoch-triggered ack reset must reconverge the rejoined node and clear every
// verdict.
func TestAntiEntropyRepairsRejoin(t *testing.T) {
	const n = 10
	c := newStepCluster(t, n, 2, healthyByName())
	for r := 0; r < 30; r++ {
		c.step()
	}

	const victim = "n004"
	c.meshes[victim].Close()
	c.meshes[victim] = nil // stop stepping it; Close detached its transport

	convicted := func() bool {
		for _, name := range c.names {
			if name == victim {
				continue
			}
			ok := false
			for _, v := range c.meshes[name].Verdicts() {
				if v.Node == victim && v.Kind == VerdictUnreachable {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	for r := 0; r < 120 && !convicted(); r++ {
		c.step()
	}
	if !convicted() {
		t.Fatal("survivors did not convict the killed node")
	}

	// Rejoin with a fresh incarnation and empty state.
	c.meshes[victim] = c.addNode(t, victim, 2, 2, healthyByName())
	repaired := func() bool {
		if c.meshes[victim].KnownCount() != n-1 {
			return false
		}
		for _, name := range c.names {
			if len(c.meshes[name].Verdicts()) != 0 {
				return false
			}
		}
		return true
	}
	for r := 0; r < 200 && !repaired(); r++ {
		c.step()
	}
	if !repaired() {
		t.Fatalf("rejoin did not repair: victim knows %d/%d digests", c.meshes[victim].KnownCount(), n-1)
	}
}

// TestLinkDemotionAndRepromotion: a link that fails demoteAfter consecutive
// sends is demoted out of the fanout sample set, and a later successful probe
// re-promotes it.
func TestLinkDemotionAndRepromotion(t *testing.T) {
	clk := clock.NewVirtual()
	net := NewMemNetwork(clk, nil)
	m, err := New(Config{
		Self:      "a",
		Peers:     []string{"ghost"},
		Interval:  100 * time.Millisecond,
		Quorum:    1,
		Epoch:     1,
		Clock:     clk,
		Transport: net.Node("a"),
		Source:    healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func() { clk.Advance(100 * time.Millisecond); m.Step() }
	for i := 0; i < 6; i++ {
		step()
	}
	snap := m.Snapshot()
	if snap.PeersDemoted != 1 || !snap.Peers[0].Demoted {
		t.Fatalf("link not demoted after consecutive failures: %+v", snap.Peers[0])
	}
	if snap.Peers[0].ConsecFailures < demoteAfter {
		t.Fatalf("consecutive failure streak not tracked: %+v", snap.Peers[0])
	}
	if snap.MessagesSent != 0 {
		t.Fatalf("failed sends counted as sent: %d", snap.MessagesSent)
	}

	// The peer comes up; the next probe round must re-promote the link.
	net.Node("ghost").SetHandler(func(*Message) {})
	for i := 0; i < 6 && m.Snapshot().PeersDemoted != 0; i++ {
		step()
	}
	snap = m.Snapshot()
	if snap.PeersDemoted != 0 || snap.Peers[0].Demoted {
		t.Fatalf("healed link not re-promoted: %+v", snap.Peers[0])
	}
	if snap.Peers[0].Sent == 0 {
		t.Fatal("no successful probe counted")
	}
}

// TestDeltaSuppression checks the evidence-based ack protocol directly:
// digests a peer has evidenced knowing are suppressed from its delta, a
// fresher digest reopens the delta, a full (anti-entropy) frame ignores acks
// entirely, and a peer restart (higher epoch) forgets its ack table.
func TestDeltaSuppression(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	m, err := New(Config{
		Self: "a", Peers: []string{"b", "c"}, Epoch: 1,
		Transport: net.Node("a"), Source: healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pb := m.peers[m.byName["b"]]

	deltaTo := func(p *peer, full bool) []string {
		m.mu.Lock()
		defer m.mu.Unlock()
		ds := m.deltaLocked(p, full, nil)
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = fmt.Sprintf("%s@%d.%d", d.Node, d.Epoch, d.Seq)
		}
		return names
	}

	// b relays c@5: we learn c's digest AND that b knows it.
	m.receive(&Message{From: "b",
		Self:  Digest{Node: "b", Epoch: 1, Seq: 1, Healthy: true},
		Known: []Digest{{Node: "c", Epoch: 1, Seq: 5, Healthy: true}},
	})
	if got := deltaTo(pb, false); len(got) != 0 {
		t.Fatalf("delta to b should be empty (b evidenced c@5): %v", got)
	}
	if got := deltaTo(m.peers[m.byName["c"]], false); len(got) != 1 || got[0] != "b@1.1" {
		t.Fatalf("delta to c should carry b's digest: %v", got)
	}

	// c's own fresher digest reopens the delta to b.
	m.receive(&Message{From: "c", Self: Digest{Node: "c", Epoch: 1, Seq: 6, Healthy: true}})
	if got := deltaTo(pb, false); len(got) != 1 || got[0] != "c@1.6" {
		t.Fatalf("fresher c@6 should reopen delta to b: %v", got)
	}

	// b evidences c@6; suppressed again. A full frame still carries it.
	m.receive(&Message{From: "b",
		Self:  Digest{Node: "b", Epoch: 1, Seq: 2, Healthy: true},
		Known: []Digest{{Node: "c", Epoch: 1, Seq: 6, Healthy: true}},
	})
	if got := deltaTo(pb, false); len(got) != 0 {
		t.Fatalf("delta to b should be suppressed again: %v", got)
	}
	if got := deltaTo(pb, true); len(got) != 1 || got[0] != "c@1.6" {
		t.Fatalf("full frame must ignore acks: %v", got)
	}

	// b restarts (epoch 2): its ack table is forgotten, so c@6 is resent.
	m.receive(&Message{From: "b", Self: Digest{Node: "b", Epoch: 2, Seq: 1, Healthy: true}})
	if got := deltaTo(pb, false); len(got) != 1 || got[0] != "c@1.6" {
		t.Fatalf("restarted b must get c@6 again: %v", got)
	}

	// Restart freshness: b@2.1 must have replaced b@1.2.
	if d, ok := m.KnownDigest("b"); !ok || d.Epoch != 2 || d.Seq != 1 {
		t.Fatalf("restart digest not merged: %+v ok=%v", d, ok)
	}
}
