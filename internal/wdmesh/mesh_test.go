package wdmesh

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

// healthySource returns a Source reporting a healthy digest.
func healthySource() func() Digest {
	return func() Digest {
		return Digest{Healthy: true, Worst: watchdog.StatusHealthy}
	}
}

// testMesh builds a started mesh node on net with fast timing.
func testMesh(t *testing.T, net *MemNetwork, self string, peers []string, src func() Digest, onVerdict func(Verdict, bool)) *Mesh {
	t.Helper()
	m, err := New(Config{
		Self:         self,
		Peers:        peers,
		Interval:     10 * time.Millisecond,
		SuspectAfter: 80 * time.Millisecond,
		Quorum:       2,
		Transport:    net.Node(self),
		Source:       src,
		OnVerdict:    onVerdict,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	m.Start()
	t.Cleanup(func() { m.Close() })
	return m
}

// hasDigests reports whether m has merged a real digest (Seq > 0) from every
// named peer; the cold-start grace period makes ObsOK alone too weak a
// convergence signal.
func hasDigests(m *Mesh, peers ...string) bool {
	snap := m.Snapshot()
	for _, want := range peers {
		found := false
		for _, p := range snap.Peers {
			if p.Node == want && p.Seq > 0 && p.Observation == ObsOK {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNewValidation(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	tr := net.Node("a")
	src := healthySource()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty self", Config{Transport: tr, Source: src, Peers: []string{"b"}}},
		{"nil transport", Config{Self: "a", Source: src, Peers: []string{"b"}}},
		{"nil source", Config{Self: "a", Transport: tr, Peers: []string{"b"}}},
		{"no peers", Config{Self: "a", Transport: tr, Source: src}},
		{"only self peer", Config{Self: "a", Transport: tr, Source: src, Peers: []string{"a", ""}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}

	m, err := New(Config{Self: "a", Transport: tr, Source: src, Peers: []string{"b", "b", "a", "c"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := len(m.peers); got != 2 {
		t.Fatalf("peer dedup: got %d peers, want 2", got)
	}
	if m.cfg.Interval != time.Second || m.cfg.SuspectAfter != 4*time.Second {
		t.Fatalf("defaults: interval=%v suspectAfter=%v", m.cfg.Interval, m.cfg.SuspectAfter)
	}
	if snap := m.Snapshot(); snap.Quorum != 2 || snap.Self != "a" {
		t.Fatalf("accessors: quorum=%d self=%q", snap.Quorum, snap.Self)
	}
}

func TestWorseStatus(t *testing.T) {
	cases := []struct {
		a, b, want watchdog.Status
	}{
		{watchdog.StatusHealthy, watchdog.StatusSlow, watchdog.StatusSlow},
		{watchdog.StatusStuck, watchdog.StatusError, watchdog.StatusStuck},
		{watchdog.StatusSlow, watchdog.StatusSlow, watchdog.StatusSlow},
		{watchdog.StatusError, watchdog.StatusSkipped, watchdog.StatusError},
	}
	for _, tc := range cases {
		if got := WorseStatus(tc.a, tc.b); got != tc.want {
			t.Errorf("WorseStatus(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestRemoteAlarmBecomesClusterVerdict is the tentpole scenario: node c's own
// watchdog alarms while c stays perfectly reachable. Peers must converge on
// an intrinsic verdict — and their reachability view of c must stay fresh,
// which is exactly what a plain heartbeat would (wrongly) call healthy.
func TestRemoteAlarmBecomesClusterVerdict(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	var cSick sync.Mutex
	sick := false
	cSource := func() Digest {
		cSick.Lock()
		defer cSick.Unlock()
		if sick {
			return Digest{Healthy: false, Worst: watchdog.StatusSlow, Abnormal: []string{"flusher"}, Alarms: 1}
		}
		return Digest{Healthy: true, Worst: watchdog.StatusHealthy}
	}

	type edge struct {
		v      Verdict
		raised bool
	}
	var edgesMu sync.Mutex
	var edges []edge
	onVerdict := func(v Verdict, raised bool) {
		edgesMu.Lock()
		edges = append(edges, edge{v, raised})
		edgesMu.Unlock()
	}

	a := testMesh(t, net, "a", []string{"b", "c"}, healthySource(), onVerdict)
	b := testMesh(t, net, "b", []string{"a", "c"}, healthySource(), nil)
	testMesh(t, net, "c", []string{"a", "b"}, cSource, nil)

	waitFor(t, 3*time.Second, "mesh convergence", func() bool {
		return hasDigests(a, "b", "c") && hasDigests(b, "a", "c")
	})

	cSick.Lock()
	sick = true
	cSick.Unlock()

	hasIntrinsic := func(m *Mesh) bool {
		for _, v := range m.Verdicts() {
			if v.Node == "c" && v.Kind == VerdictIntrinsic && v.Votes >= 2 {
				return true
			}
		}
		return false
	}
	waitFor(t, 3*time.Second, "intrinsic verdict on both observers", func() bool {
		return hasIntrinsic(a) && hasIntrinsic(b)
	})

	// The heartbeat view: c is still reachable. Its digests keep arriving, so
	// the suspicion is wd-alarm, never unreachable.
	if obs := a.Observation("c"); obs != ObsAlarming {
		t.Fatalf("a observes c as %q, want %q (c is reachable, only its watchdog alarms)", obs, ObsAlarming)
	}
	snap := a.Snapshot()
	for _, p := range snap.Peers {
		if p.Node == "c" {
			if p.LastHeardNS < 0 || time.Duration(p.LastHeardNS) > 80*time.Millisecond {
				t.Fatalf("c should still be heard (heartbeat-healthy): last heard %v ago", time.Duration(p.LastHeardNS))
			}
			if p.Worst != watchdog.StatusSlow {
				t.Fatalf("relayed worst status = %v, want %v", p.Worst, watchdog.StatusSlow)
			}
		}
	}

	// Recovery: c turns healthy again and the verdict clears.
	cSick.Lock()
	sick = false
	cSick.Unlock()
	waitFor(t, 3*time.Second, "verdict cleared", func() bool {
		return len(a.Verdicts()) == 0 && len(b.Verdicts()) == 0
	})

	edgesMu.Lock()
	defer edgesMu.Unlock()
	if len(edges) < 2 {
		t.Fatalf("want raise+clear edges, got %d", len(edges))
	}
	if first := edges[0]; !first.raised || first.v.Kind != VerdictIntrinsic || first.v.Node != "c" {
		t.Fatalf("first edge = %+v, want raised intrinsic on c", first)
	}
	if last := edges[len(edges)-1]; last.raised {
		t.Fatalf("last edge should be a clear, got %+v", last)
	}
}

// TestOneWayPartitionNoFalsePositive arms a silent Drop on the c->a link.
// a stops hearing c directly, but b relays c's digests, so with quorum 2 no
// cluster verdict may be raised anywhere.
func TestOneWayPartitionNoFalsePositive(t *testing.T) {
	inj := faultinject.New(clock.Real())
	net := NewMemNetwork(nil, inj)
	a := testMesh(t, net, "a", []string{"b", "c"}, healthySource(), nil)
	b := testMesh(t, net, "b", []string{"a", "c"}, healthySource(), nil)
	c := testMesh(t, net, "c", []string{"a", "b"}, healthySource(), nil)

	waitFor(t, 3*time.Second, "mesh convergence", func() bool {
		return hasDigests(a, "b", "c") && hasDigests(c, "a", "b")
	})

	inj.Arm(LinkPoint("c", "a"), faultinject.Fault{Kind: faultinject.Drop})
	time.Sleep(600 * time.Millisecond) // ~7x SuspectAfter under the partition

	for name, m := range map[string]*Mesh{"a": a, "b": b, "c": c} {
		snap := m.Snapshot()
		if snap.VerdictsRaised != 0 {
			t.Errorf("%s raised %d verdicts under one-way partition, want 0 (verdicts: %+v)",
				name, snap.VerdictsRaised, snap.Verdicts)
		}
	}
	// Relay kept a's view of c fresh despite the dropped direct link.
	if obs := a.Observation("c"); obs != ObsOK {
		t.Fatalf("a observes c as %q under one-way partition, want %q via relay", obs, ObsOK)
	}
}

// TestFullPartitionUnreachableVerdict closes node c entirely; the survivors
// must corroborate an unreachable (extrinsic) verdict.
func TestFullPartitionUnreachableVerdict(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	a := testMesh(t, net, "a", []string{"b", "c"}, healthySource(), nil)
	b := testMesh(t, net, "b", []string{"a", "c"}, healthySource(), nil)
	c := testMesh(t, net, "c", []string{"a", "b"}, healthySource(), nil)

	waitFor(t, 3*time.Second, "mesh convergence", func() bool {
		return hasDigests(a, "b", "c") && hasDigests(b, "a", "c")
	})

	if err := c.Close(); err != nil {
		t.Fatalf("c.Close: %v", err)
	}

	hasUnreachable := func(m *Mesh) bool {
		for _, v := range m.Verdicts() {
			if v.Node == "c" && v.Kind == VerdictUnreachable && v.Votes >= 2 {
				return true
			}
		}
		return false
	}
	waitFor(t, 3*time.Second, "unreachable verdict on both survivors", func() bool {
		return hasUnreachable(a) && hasUnreachable(b)
	})
	if obs := a.Observation("c"); obs != ObsUnreachable {
		t.Fatalf("a observes c as %q, want %q", obs, ObsUnreachable)
	}
}

// TestDuplicateDelivery checks sequence-number dedup: a Duplicate link fault
// doubles deliveries without corrupting digest state.
func TestDuplicateDelivery(t *testing.T) {
	inj := faultinject.New(clock.Real())
	net := NewMemNetwork(nil, inj)
	inj.Arm(LinkPoint("b", "a"), faultinject.Fault{Kind: faultinject.Duplicate})

	a := testMesh(t, net, "a", []string{"b"}, healthySource(), nil)
	testMesh(t, net, "b", []string{"a"}, healthySource(), nil)

	waitFor(t, 3*time.Second, "duplicated digests received", func() bool {
		return a.Snapshot().MessagesReceived >= 6
	})
	snap := a.Snapshot()
	for _, p := range snap.Peers {
		if p.Node == "b" && p.Observation != ObsOK {
			t.Fatalf("duplicate delivery broke b's observation: %q", p.Observation)
		}
	}
	// Freshest-seq wins: the tracked seq never exceeds what b actually sent.
	if d, ok := a.KnownDigest("b"); !ok || d.Seq == 0 {
		t.Fatal("no digest merged from b")
	}
}

// sendLog is a Transport that records, at Send time, the relayed digests of
// every frame sent to one peer.
type sendLog struct {
	Transport
	to   string
	sent *[]string
}

func (l sendLog) Send(ctx context.Context, peer string, msg *Message) error {
	if peer == l.to {
		*l.sent = append(*l.sent, knownString(msg))
	}
	return l.Transport.Send(ctx, peer, msg)
}

// knownString renders a frame's relayed digests as "node@epoch.seq" terms.
func knownString(msg *Message) string {
	var b strings.Builder
	for i := range msg.Known {
		fmt.Fprintf(&b, "%s@%d.%d ", msg.Known[i].Node, msg.Known[i].Epoch, msg.Known[i].Seq)
	}
	return b.String()
}

// TestDelayedDeliveryKeepsSentDigests: a Delay link fault delivers frames
// after Send has returned, by when the sender's later Steps have reused the
// frames' Known buffers for newer digests. The receiver must still get each
// frame's digests as they were sent.
func TestDelayedDeliveryKeepsSentDigests(t *testing.T) {
	clk := clock.NewVirtual()
	inj := faultinject.New(clk)
	inj.Arm(LinkPoint("a", "b"), faultinject.Fault{Kind: faultinject.Delay, Delay: time.Second})
	net := NewMemNetwork(clk, inj)
	var sent []string
	m, err := New(Config{
		Self: "a", Peers: []string{"b", "c"},
		Interval: 100 * time.Millisecond, Epoch: 1, Clock: clk,
		Transport: sendLog{net.Node("a"), "b", &sent}, Source: healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	net.Node("b").SetHandler(func(msg *Message) {
		mu.Lock()
		got = append(got, knownString(msg))
		mu.Unlock()
	})
	net.Node("c").SetHandler(func(*Message) {})

	const rounds = 3
	for k := uint64(1); k <= rounds; k++ {
		// Fresh digests from b and c, so each round's frames relay new seqs.
		for _, from := range []string{"b", "c"} {
			m.receive(&Message{From: from, Self: Digest{Node: from, Epoch: 1, Seq: k, Healthy: true}})
		}
		clk.Advance(100 * time.Millisecond)
		m.Step()
	}
	clk.BlockUntil(rounds) // every delayed delivery is asleep on the clock
	clk.Advance(time.Second)
	net.Wait()

	mu.Lock()
	defer mu.Unlock()
	slices.Sort(got) // delayed deliveries may land in any order
	want := slices.Clone(sent)
	slices.Sort(want)
	if len(want) != rounds || want[0] == "" {
		t.Fatalf("frames sent to b = %q, want %d frames relaying c", sent, rounds)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("b received relayed digests %q, sent %q", got, want)
	}
}

// TestNonMemberFrameCannotConvict: frames whose sender is outside the fixed
// membership are dropped whole. Two strangers claiming a healthy member is
// alarming must not reach quorum or leave observation records behind, while
// the same claim from two members does convict.
func TestNonMemberFrameCannotConvict(t *testing.T) {
	clk := clock.NewVirtual()
	net := NewMemNetwork(clk, nil)
	m, err := New(Config{
		Self: "a", Peers: []string{"b", "c", "d"},
		Interval: 100 * time.Millisecond, Quorum: 2, Epoch: 1,
		Clock: clk, Transport: net.Node("a"), Source: healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	m.receive(&Message{From: "c", Self: Digest{Node: "c", Epoch: 1, Seq: 1, Healthy: true, Worst: watchdog.StatusHealthy}})
	accuse := func(froms ...string) {
		for _, from := range froms {
			m.receive(&Message{From: from,
				Self: Digest{Node: from, Epoch: 1, Seq: 1, Healthy: true},
				Obs:  []Observation{{Node: "c", Kind: ObsAlarming}},
			})
		}
		clk.Advance(100 * time.Millisecond)
		m.Step()
	}

	accuse("x1", "x2")
	if vs := m.Verdicts(); len(vs) != 0 {
		t.Fatalf("strangers convicted a healthy member: %+v", vs)
	}
	m.mu.Lock()
	records := 0
	for _, rec := range m.obs {
		if len(rec.kinds) > 0 {
			records++
		}
	}
	m.mu.Unlock()
	if records != 0 {
		t.Fatalf("stranger frames left %d observation record(s)", records)
	}
	if got := m.Snapshot().MessagesReceived; got != 1 {
		t.Fatalf("received %d frames, want only c's", got)
	}

	accuse("b", "d")
	if vs := m.Verdicts(); len(vs) != 1 || vs[0].Node != "c" || vs[0].Kind != VerdictIntrinsic || vs[0].Votes != 2 {
		t.Fatalf("two members' accusations should convict c: %+v", vs)
	}
}

// TestQueueDropsAndRetries drives a mesh whose peer does not exist: sends
// fail, retries and failures count up, and a full queue drops instead of
// blocking the gossip loop.
func TestQueueDropsAndRetries(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	m, err := New(Config{
		Self:        "a",
		Peers:       []string{"ghost"},
		Interval:    5 * time.Millisecond,
		SendTimeout: 20 * time.Millisecond,
		Retries:     1,
		RetryBase:   25 * time.Millisecond, // keep the sender busy past several ticks so the queue overflows
		QueueCap:    1,
		DemoteAfter: 1 << 20, // keep the dead link in the sample set; demotion has its own test
		Transport:   net.Node("a"),
		Source:      healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()

	// Suspicion comes from the gossip tick after SuspectAfter, not from the
	// failed sends, so wait for it too rather than racing it.
	waitFor(t, 3*time.Second, "send failures, queue drops and suspicion", func() bool {
		snap := m.Snapshot()
		return snap.SendFailures > 0 && snap.SendRetries > 0 && snap.QueueDrops > 0 &&
			snap.PeersSuspect == 1
	})
	snap := m.Snapshot()
	if snap.MessagesSent != 0 {
		t.Fatalf("sends to a nonexistent peer counted as sent: %d", snap.MessagesSent)
	}
	if snap.PeersSuspect != 1 || snap.PeersAlive != 0 {
		t.Fatalf("ghost peer should be suspect: alive=%d suspect=%d", snap.PeersAlive, snap.PeersSuspect)
	}
}

// blackholeTransport hangs every Send until its context deadline, modelling a
// link that accepts connections and then goes silent.
type blackholeTransport struct{}

func (blackholeTransport) Send(ctx context.Context, peer string, msg *Message) error {
	<-ctx.Done()
	return ctx.Err()
}
func (blackholeTransport) SetHandler(func(*Message)) {}
func (blackholeTransport) Close() error              { return nil }

// TestCloseBoundedUnderBlackhole proves Close returns promptly even when
// every send hangs: the per-attempt deadline bounds in-flight sends and the
// stop channel aborts retry backoffs.
func TestCloseBoundedUnderBlackhole(t *testing.T) {
	m, err := New(Config{
		Self:        "a",
		Peers:       []string{"b", "c"},
		Interval:    5 * time.Millisecond,
		SendTimeout: 30 * time.Millisecond,
		Retries:     3,
		RetryBase:   50 * time.Millisecond,
		Transport:   blackholeTransport{},
		Source:      healthySource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	time.Sleep(20 * time.Millisecond) // let senders get stuck mid-send

	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s under a black-holed transport")
	}
}

// TestTCPTransport runs a two-node mesh over real sockets.
func TestTCPTransport(t *testing.T) {
	trA, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trB, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	mk := func(tr *TCPTransport, peer string) *Mesh {
		m, err := New(Config{
			Self:         tr.Addr(),
			Peers:        []string{peer},
			Interval:     10 * time.Millisecond,
			SuspectAfter: 100 * time.Millisecond,
			Quorum:       1,
			Transport:    tr,
			Source:       healthySource(),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		t.Cleanup(func() { m.Close() })
		return m
	}
	a := mk(trA, trB.Addr())
	b := mk(trB, trA.Addr())

	waitFor(t, 5*time.Second, "TCP digest exchange", func() bool {
		return hasDigests(a, trB.Addr()) && hasDigests(b, trA.Addr())
	})

	// With quorum 1, killing b must surface as an unreachable verdict at a.
	if err := b.Close(); err != nil {
		t.Fatalf("b.Close: %v", err)
	}
	waitFor(t, 5*time.Second, "unreachable verdict over TCP", func() bool {
		for _, v := range a.Verdicts() {
			if v.Node == trB.Addr() && v.Kind == VerdictUnreachable {
				return true
			}
		}
		return false
	})
}

// TestSnapshotShape spot-checks snapshot bookkeeping fields.
func TestSnapshotShape(t *testing.T) {
	net := NewMemNetwork(nil, nil)
	a := testMesh(t, net, "a", []string{"b", "c"}, healthySource(), nil)
	testMesh(t, net, "b", []string{"a", "c"}, healthySource(), nil)
	testMesh(t, net, "c", []string{"a", "b"}, healthySource(), nil)

	waitFor(t, 3*time.Second, "all peers alive with real digests", func() bool {
		snap := a.Snapshot()
		if snap.PeersAlive != 2 || snap.PeersSuspect != 0 {
			return false
		}
		for _, p := range snap.Peers {
			if p.Seq == 0 {
				return false
			}
		}
		return true
	})
	snap := a.Snapshot()
	if snap.Self != "a" || snap.Quorum != 2 {
		t.Fatalf("snapshot identity: %+v", snap)
	}
	if snap.IntervalNS != int64(10*time.Millisecond) || snap.SuspectAfterNS != int64(80*time.Millisecond) {
		t.Fatalf("snapshot timing: interval=%d suspect=%d", snap.IntervalNS, snap.SuspectAfterNS)
	}
	if len(snap.Peers) != 2 || snap.Peers[0].Node != "b" || snap.Peers[1].Node != "c" {
		t.Fatalf("snapshot peers not sorted: %+v", snap.Peers)
	}
	if snap.MessagesSent == 0 || snap.MessagesReceived == 0 {
		t.Fatalf("no traffic counted: %+v", snap)
	}
	if s := fmt.Sprint(a); s != "wdmesh(a, 2 peers)" {
		t.Fatalf("String() = %q", s)
	}
}
