package wdmesh

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
)

// Config parameterizes one mesh node.
type Config struct {
	// Self is this node's mesh identity. With the TCP transport it is the
	// address peers dial, so digests are attributable without a directory.
	Self string
	// Peers are the other nodes' identities (TCP: their listen addresses).
	// Self is filtered out; duplicates are collapsed. Membership is fixed
	// for the life of the process.
	Peers []string
	// Interval is the gossip period (default 1s).
	Interval time.Duration
	// SuspectAfter is how long without a fresh digest — direct or relayed —
	// before a peer is observed unreachable. Default: 4×Interval for a full
	// mesh; with fanout sampling, 4×Interval plus 2×⌈log2 N⌉ intervals of
	// epidemic propagation slack, because a digest now reaches most nodes by
	// relay in O(log N) rounds rather than one hop.
	SuspectAfter time.Duration
	// Quorum is how many observers (this node plus peers with fresh
	// observations) must corroborate a suspicion before it becomes a
	// cluster-level verdict (default 2; 1 degrades to plain heartbeating).
	Quorum int
	// Fanout is how many peers are sampled per gossip round (default 3).
	// Values >= len(Peers) degrade to the classic full mesh, which is what
	// small clusters get by default.
	Fanout int
	// MaxDelta caps the relayed digests piggybacked per frame (default 512).
	// Entries are chosen least-gossiped first so new rumors spread before
	// well-travelled ones.
	MaxDelta int
	// AntiEntropyEvery makes every Nth round push one sampled peer a Full
	// frame carrying the complete digest table (default 8; 0 disables).
	// This is the repair path for nodes rejoining after a partition or
	// restart, whose stale acks would otherwise suppress the deltas they
	// need.
	AntiEntropyEvery int
	// DemoteAfter is how many consecutive send failures demote a link out of
	// the fanout sample set (default 3). Demoted links still get probe and
	// anti-entropy traffic, and one success re-promotes them.
	DemoteAfter int
	// ProbeEvery makes every Nth round probe one demoted link so a healed
	// peer is re-promoted promptly (default 4).
	ProbeEvery int
	// Epoch is this node's incarnation number, carried in every digest so
	// peers detect restarts (default: clock now in nanoseconds at New).
	// Deterministic campaigns set it explicitly.
	Epoch int64
	// QueueCap bounds each peer's outgoing queue; overflow drops the message
	// and increments the peer's drop counter (default 8).
	QueueCap int
	// SendTimeout is the per-attempt send deadline (default Interval, capped
	// at 2s so a hung link never stalls a sender past a couple of rounds).
	SendTimeout time.Duration
	// Retries is how many times a failed send is retried before the message
	// is abandoned (default 2).
	Retries int
	// RetryBase seeds the capped exponential retry backoff (default
	// Interval/8; the cap is Interval).
	RetryBase time.Duration
	// JitterSeed seeds retry jitter and fanout sampling (default 1).
	JitterSeed int64
	// Clock replaces the real clock (virtual in deterministic tests).
	Clock clock.Clock
	// Transport carries messages; required.
	Transport Transport
	// Source builds this node's health digest each gossip round; required.
	// The mesh fills Node, Epoch, Seq, and Time itself.
	Source func() Digest
	// OnVerdict, when set, is called on every cluster-verdict transition:
	// raised=true when the verdict is reached, false when it clears (the
	// cleared verdict is passed so the subject and kind are known).
	OnVerdict func(v Verdict, raised bool)
	// Logf, when set, receives one-line mesh lifecycle messages.
	Logf func(format string, args ...any)
}

// ackRef is the freshest digest a peer has evidenced knowing for one node.
type ackRef struct {
	epoch int64
	seq   uint64
}

// covers reports whether the acked reference already covers the digest
// (epoch, seq), i.e. sending it to that peer would tell it nothing new.
func (a ackRef) covers(epoch int64, seq uint64) bool {
	if a.epoch != epoch {
		return a.epoch > epoch
	}
	return a.seq >= seq
}

// peer is the per-peer send side: a bounded queue drained by one sender
// goroutine, drop/retry/failure counters, link health, and the ack table
// driving delta suppression.
type peer struct {
	name  string
	idx   int
	queue chan Message

	drops    atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
	sent     atomic.Int64

	// consecFail counts consecutive failed deliveries; DemoteAfter of them
	// demote the link out of the fanout sample set until a probe succeeds.
	consecFail atomic.Int64
	demoted    atomic.Bool

	// acked (guarded by Mesh.mu) holds, per node index, the freshest digest
	// this peer has evidenced knowing — learned only from frames received
	// FROM the peer, never from our own sends, so a lossy link cannot fake
	// an ack. lastEpoch is the peer's own incarnation; when it increases the
	// peer has restarted and the whole ack table is forgotten.
	acked     []ackRef
	lastEpoch int64
}

// obsRecord is one observer's most recent abnormal-observation set. A frame
// with none deletes the observer's record, which clears its previous
// suspicions exactly as an empty set would.
type obsRecord struct {
	at    time.Time
	kinds map[string]string // subject -> non-ok observation kind
}

// member is one peer's name and index, an entry of Mesh.order.
type member struct {
	name string
	idx  int
}

// Mesh is one node's view of the cluster health plane.
type Mesh struct {
	cfg    Config
	clk    clock.Clock
	peers  []*peer
	byName map[string]int // peer name -> index into peers
	// order lists the peers sorted by name, so frames and verdicts come out
	// in name order without sorting strings per round, and a name-ordered
	// frame is absorbed without hashing every relayed name.
	order []member

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	seq      uint64
	round    uint64
	digests  []Digest    // freshest known digest per peer index
	present  []bool      // whether any digest has been seen for the index
	heard    []time.Time // when a fresh digest for the index last arrived
	obs      map[string]obsRecord
	verdicts map[string]Verdict
	scratch  []int  // reused per-round sample buffer
	cand     []int  // reused per-frame delta candidates, in name order
	ranked   []int  // reused MaxDelta ranking buffer
	suspect  []bool // reused per-round verdict candidate marks, by index

	begun    bool // handler installed, heard seeded (Start or first Step)
	started  bool // goroutine mode (Start)
	stepping bool // synchronous mode (Step)
	stop     chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
	closeErr error

	sent            atomic.Int64
	received        atomic.Int64
	deltaEntries    atomic.Int64
	fullSyncs       atomic.Int64
	verdictsRaised  atomic.Int64
	verdictsCleared atomic.Int64
}

// New validates cfg, applies defaults, and returns an unstarted Mesh.
func New(cfg Config) (*Mesh, error) {
	if cfg.Self == "" {
		return nil, errors.New("wdmesh: empty Self identity")
	}
	if cfg.Transport == nil {
		return nil, errors.New("wdmesh: nil Transport")
	}
	if cfg.Source == nil {
		return nil, errors.New("wdmesh: nil digest Source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = 2
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	if cfg.MaxDelta <= 0 {
		cfg.MaxDelta = 512
	}
	if cfg.AntiEntropyEvery < 0 {
		cfg.AntiEntropyEvery = 0
	} else if cfg.AntiEntropyEvery == 0 {
		cfg.AntiEntropyEvery = 8
	}
	if cfg.DemoteAfter <= 0 {
		cfg.DemoteAfter = 3
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.SendTimeout <= 0 {
		cfg.SendTimeout = cfg.Interval
		if cfg.SendTimeout > 2*time.Second {
			cfg.SendTimeout = 2 * time.Second
		}
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = cfg.Interval / 8
		if cfg.RetryBase <= 0 {
			cfg.RetryBase = time.Millisecond
		}
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = cfg.Clock.Now().UnixNano()
	}

	m := &Mesh{
		cfg:      cfg,
		clk:      cfg.Clock,
		rng:      rand.New(rand.NewSource(cfg.JitterSeed)),
		byName:   make(map[string]int),
		obs:      make(map[string]obsRecord),
		verdicts: make(map[string]Verdict),
		stop:     make(chan struct{}),
	}
	seen := map[string]bool{cfg.Self: true}
	for _, name := range cfg.Peers {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		p := &peer{name: name, idx: len(m.peers), queue: make(chan Message, cfg.QueueCap)}
		m.byName[name] = len(m.peers)
		m.peers = append(m.peers, p)
	}
	if len(m.peers) == 0 {
		return nil, errors.New("wdmesh: no peers besides self")
	}
	n := len(m.peers)
	m.digests = make([]Digest, n)
	m.present = make([]bool, n)
	m.heard = make([]time.Time, n)
	m.suspect = make([]bool, n)
	m.order = make([]member, n)
	for i, p := range m.peers {
		p.acked = make([]ackRef, n)
		m.order[i] = member{name: p.name, idx: i}
	}
	slices.SortFunc(m.order, func(a, b member) int { return strings.Compare(a.name, b.name) })
	if m.cfg.SuspectAfter <= 0 {
		m.cfg.SuspectAfter = 4 * m.cfg.Interval
		if m.cfg.Fanout < n {
			// Sampled gossip spreads a fresh digest epidemically in ~log2 N
			// rounds; give suspicion that much propagation slack, doubled.
			m.cfg.SuspectAfter += time.Duration(2*ceilLog2(n+1)) * m.cfg.Interval
		}
	}
	return m, nil
}

// ceilLog2 returns ⌈log2 n⌉ for n >= 1.
func ceilLog2(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Self returns this node's mesh identity.
func (m *Mesh) Self() string { return m.cfg.Self }

// Quorum returns the effective corroboration quorum.
func (m *Mesh) Quorum() int { return m.cfg.Quorum }

// SuspectAfter returns the effective suspicion window (after scale-aware
// defaulting), so campaigns can budget detection phases against it.
func (m *Mesh) SuspectAfter() time.Duration { return m.cfg.SuspectAfter }

// begin installs the inbound handler and seeds every peer as just-heard: a
// node is presumed alive at cold start and only becomes suspect after a full
// SuspectAfter of real silence. Without this, simultaneously booting nodes
// corroborate each other's "never heard yet" into a spurious cluster verdict.
// Callers hold m.mu.
func (m *Mesh) beginLocked() {
	if m.begun {
		return
	}
	m.begun = true
	now := m.clk.Now()
	for i := range m.heard {
		m.heard[i] = now
	}
	m.cfg.Transport.SetHandler(m.receive)
}

// Start launches the gossip loop and one sender goroutine per peer. It is
// not idempotent; call once. Meshes driven by Step must not call Start.
func (m *Mesh) Start() {
	m.mu.Lock()
	if m.started || m.stepping {
		m.mu.Unlock()
		panic("wdmesh: Start after Start or Step")
	}
	m.started = true
	m.beginLocked()
	m.mu.Unlock()

	for _, p := range m.peers {
		m.wg.Add(1)
		go m.sender(p)
	}
	m.wg.Add(1)
	go m.gossipLoop()
	m.logf("wdmesh: %s gossiping to %d peer(s) every %v (fanout %d, suspect-after %v, quorum %d)",
		m.cfg.Self, len(m.peers), m.cfg.Interval, m.cfg.Fanout, m.cfg.SuspectAfter, m.cfg.Quorum)
}

// Step runs one synchronous gossip round on the caller's schedule: sampling,
// verdict evaluation, and inline delivery (no queues, no retries) in the
// calling goroutine. Combined with a virtual clock and an in-process network
// it makes thousand-node campaigns deterministic: same seeds and same step
// order give bit-identical state. A stepped mesh must never call Start.
func (m *Mesh) Step() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		panic("wdmesh: Step after Start")
	}
	m.stepping = true
	m.beginLocked()
	m.mu.Unlock()

	for _, f := range m.buildRound() {
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.SendTimeout)
		err := m.cfg.Transport.Send(ctx, f.p.name, &f.msg)
		cancel()
		m.noteSend(f.p, err)
	}
}

// Close stops gossiping and releases the transport. It is bounded even when
// every link is down: in-flight sends are limited by the per-attempt
// deadline, and retry backoffs abort on stop.
func (m *Mesh) Close() error {
	m.closeOne.Do(func() {
		close(m.stop)
		err := m.cfg.Transport.Close()
		m.wg.Wait()
		m.closeErr = err
	})
	return m.closeErr
}

// gossipLoop emits one gossip round per interval until Close.
func (m *Mesh) gossipLoop() {
	defer m.wg.Done()
	ticker := m.clk.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		m.tickOnce()
		select {
		case <-m.stop:
			return
		case <-ticker.C():
		}
	}
}

// outFrame pairs one assembled frame with its target peer.
type outFrame struct {
	p   *peer
	msg Message
}

// tickOnce runs one asynchronous gossip round: build the frames, then hand
// each to its peer's bounded queue (overflow drops, never blocks).
func (m *Mesh) tickOnce() {
	for _, f := range m.buildRound() {
		select {
		case f.p.queue <- f.msg:
		default:
			f.p.drops.Add(1)
		}
	}
}

// buildRound assembles this round's digest, re-evaluates suspicion and
// verdicts, samples the fanout targets, and builds one delta frame per
// target.
func (m *Mesh) buildRound() []outFrame {
	d := m.cfg.Source()
	now := m.clk.Now()
	d.Node = m.cfg.Self
	d.Epoch = m.cfg.Epoch
	d.Time = now
	if len(d.Abnormal) > maxAbnormalNames {
		d.Abnormal = d.Abnormal[:maxAbnormalNames]
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	m.round++
	d.Seq = m.seq
	m.evaluateVerdictsLocked(now)
	obs := m.localObsLocked(now)
	targets := m.sampleLocked()
	frames := make([]outFrame, 0, len(targets))
	for _, t := range targets {
		msg := Message{From: m.cfg.Self, Self: d, Obs: obs, Full: t.full}
		msg.Known = m.deltaLocked(t.p, t.full)
		if t.full {
			m.fullSyncs.Add(1)
		}
		m.deltaEntries.Add(int64(len(msg.Known)))
		frames = append(frames, outFrame{p: t.p, msg: msg})
	}
	return frames
}

// target is one sampled destination for this round.
type target struct {
	p    *peer
	full bool
}

// sampleLocked picks this round's destinations: Fanout healthy links chosen
// uniformly (seeded), one demoted link probed every ProbeEvery rounds, and —
// every AntiEntropyEvery rounds — one peer flagged for a full-table
// anti-entropy frame. Callers hold m.mu.
func (m *Mesh) sampleLocked() []target {
	eligible := m.scratch[:0]
	var demoted []int
	for i, p := range m.peers {
		if p.demoted.Load() {
			demoted = append(demoted, i)
		} else {
			eligible = append(eligible, i)
		}
	}
	m.rngMu.Lock()
	defer m.rngMu.Unlock()

	k := m.cfg.Fanout
	if k > len(eligible) {
		k = len(eligible)
	}
	// Partial Fisher–Yates: the first k entries become the sample.
	for i := 0; i < k; i++ {
		j := i + m.rng.Intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	targets := make([]target, 0, k+2)
	for _, idx := range eligible[:k] {
		targets = append(targets, target{p: m.peers[idx]})
	}
	if len(demoted) > 0 && m.cfg.ProbeEvery > 0 && m.round%uint64(m.cfg.ProbeEvery) == 0 {
		idx := demoted[m.rng.Intn(len(demoted))]
		targets = append(targets, target{p: m.peers[idx]})
	}
	if m.cfg.AntiEntropyEvery > 0 && m.round%uint64(m.cfg.AntiEntropyEvery) == 0 {
		p := m.peers[m.rng.Intn(len(m.peers))]
		picked := false
		for i := range targets {
			if targets[i].p == p {
				targets[i].full, picked = true, true
				break
			}
		}
		if !picked {
			targets = append(targets, target{p: p, full: true})
		}
	}
	m.scratch = eligible[:0]
	return targets
}

// deltaLocked selects the relayed digests for one frame, in name order:
// everything the peer has not evidenced knowing (or the complete table for a
// full frame), capped at MaxDelta with least-gossiped entries first so fresh
// rumors win the budget. Callers hold m.mu.
func (m *Mesh) deltaLocked(p *peer, full bool) []Digest {
	cand := m.cand[:0]
	for _, o := range m.order {
		i := o.idx
		if !m.present[i] || i == p.idx {
			continue
		}
		if d := &m.digests[i]; !full && p.acked[i].covers(d.Epoch, d.Seq) {
			continue
		}
		cand = append(cand, i)
	}
	m.cand = cand
	if !full && len(cand) > m.cfg.MaxDelta {
		cand = m.leastGossipedLocked(cand)
	}
	out := make([]Digest, 0, len(cand))
	for _, i := range cand {
		m.digests[i].gossiped++
		out = append(out, m.digests[i])
	}
	return out
}

// leastGossipedLocked narrows cand to the MaxDelta entries that rank first
// by (gossiped, index), keeping cand's name order. Callers hold m.mu.
func (m *Mesh) leastGossipedLocked(cand []int) []int {
	rank := func(a, b int) int {
		if ga, gb := m.digests[a].gossiped, m.digests[b].gossiped; ga != gb {
			return cmp.Compare(ga, gb)
		}
		return cmp.Compare(a, b)
	}
	m.ranked = append(m.ranked[:0], cand...)
	slices.SortFunc(m.ranked, rank)
	last := m.ranked[m.cfg.MaxDelta-1]
	kept := cand[:0]
	for _, i := range cand {
		if rank(i, last) <= 0 {
			kept = append(kept, i)
		}
	}
	return kept
}

// maxAbnormalNames caps the abnormal-checker list carried per digest so a
// pathological checker suite cannot bloat every gossip message.
const maxAbnormalNames = 16

// maxObsPerFrame caps the abnormal observations carried per frame; the scan
// start rotates each round so no subject is systematically starved when more
// than this many peers look abnormal at once.
const maxObsPerFrame = 64

// localObsLocked collects this node's current non-ok observations (ObsOK is
// implied by absence). Callers hold m.mu.
func (m *Mesh) localObsLocked(now time.Time) []Observation {
	n := len(m.peers)
	var out []Observation
	start := int(m.round) % n
	for off := 0; off < n && len(out) < maxObsPerFrame; off++ {
		i := (start + off) % n
		if kind := m.observationLocked(i, now); kind != ObsOK {
			out = append(out, Observation{Node: m.peers[i].name, Kind: kind})
		}
	}
	return out
}

// observationLocked classifies one peer index right now. Callers hold m.mu.
func (m *Mesh) observationLocked(i int, now time.Time) string {
	if !m.begun || now.Sub(m.heard[i]) > m.cfg.SuspectAfter {
		return ObsUnreachable
	}
	if m.present[i] && !m.digests[i].Healthy {
		return ObsAlarming
	}
	return ObsOK
}

// Observation returns this node's current classification of a peer.
func (m *Mesh) Observation(node string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.byName[node]
	if !ok {
		return ObsUnreachable
	}
	return m.observationLocked(i, m.clk.Now())
}

// KnownDigest returns the freshest digest held for a node, if any.
func (m *Mesh) KnownDigest(node string) (Digest, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.byName[node]
	if !ok || !m.present[i] {
		return Digest{}, false
	}
	return m.digests[i], true
}

// KnownCount returns how many peers this node holds a digest for — the
// campaign's convergence measure (N-1 means full coverage).
func (m *Mesh) KnownCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ok := range m.present {
		if ok {
			n++
		}
	}
	return n
}

// voteTally accumulates corroboration for one suspect.
type voteTally struct {
	alarming    int
	unreachable int
}

// evaluateVerdictsLocked recomputes cluster verdicts from local observations
// plus fresh relayed ones, raising and clearing under the quorum gate. It is
// candidate-driven so a healthy thousand-node cluster pays O(N) per round,
// not O(N·observers): only subjects someone currently complains about (or
// that hold a standing verdict) are tallied. Callers hold m.mu.
func (m *Mesh) evaluateVerdictsLocked(now time.Time) {
	// One pass over observer records tallies every remote complaint and
	// prunes observers that have been silent for several suspicion windows.
	// A healthy cluster has no records with kinds and allocates nothing.
	var votes map[string]*voteTally
	for observer, rec := range m.obs {
		age := now.Sub(rec.at)
		if age > 4*m.cfg.SuspectAfter {
			delete(m.obs, observer)
			continue
		}
		if age > m.cfg.SuspectAfter {
			continue // the observer itself has gone quiet; its view is stale
		}
		for subject, kind := range rec.kinds {
			if subject == observer {
				// A node's opinion of itself is its digest, which already
				// drives the local observation; it is not corroboration.
				continue
			}
			v := votes[subject]
			if v == nil {
				if votes == nil {
					votes = make(map[string]*voteTally)
				}
				v = &voteTally{}
				votes[subject] = v
			}
			switch kind {
			case ObsAlarming:
				v.alarming++
			case ObsUnreachable:
				v.unreachable++
			}
		}
	}

	// Candidates, marked by peer index: locally suspect peers, remotely
	// complained-about peers, and standing verdicts (which must be re-checked
	// to clear). They are evaluated in name order.
	for i := range m.peers {
		if m.observationLocked(i, now) != ObsOK {
			m.suspect[i] = true
		}
	}
	for subject := range votes {
		if i, ok := m.byName[subject]; ok {
			m.suspect[i] = true
		}
	}
	for subject := range m.verdicts {
		m.suspect[m.byName[subject]] = true
	}

	for _, o := range m.order {
		i, subject := o.idx, o.name
		if !m.suspect[i] {
			continue
		}
		m.suspect[i] = false
		tally := voteTally{}
		if v := votes[subject]; v != nil {
			tally = *v
		}
		switch m.observationLocked(i, now) {
		case ObsAlarming:
			tally.alarming++
		case ObsUnreachable:
			tally.unreachable++
		}

		var next *Verdict
		switch {
		case tally.alarming >= m.cfg.Quorum:
			next = &Verdict{Node: subject, Kind: VerdictIntrinsic,
				Votes: tally.alarming, Worst: m.digests[i].Worst}
		case tally.unreachable >= m.cfg.Quorum:
			next = &Verdict{Node: subject, Kind: VerdictUnreachable,
				Votes: tally.unreachable}
		}

		cur, have := m.verdicts[subject]
		switch {
		case next == nil && have:
			delete(m.verdicts, subject)
			m.verdictsCleared.Add(1)
			m.notifyVerdict(cur, false)
		case next != nil && !have:
			next.Since = now
			m.verdicts[subject] = *next
			m.verdictsRaised.Add(1)
			m.notifyVerdict(*next, true)
		case next != nil && have:
			if next.Kind != cur.Kind {
				// Kind changed (e.g. gray failure collapsed into a full
				// crash): clear and re-raise so listeners see both edges.
				m.verdictsCleared.Add(1)
				m.notifyVerdict(cur, false)
				next.Since = now
				m.verdicts[subject] = *next
				m.verdictsRaised.Add(1)
				m.notifyVerdict(*next, true)
			} else {
				next.Since = cur.Since
				m.verdicts[subject] = *next
			}
		}
	}
}

// notifyVerdict invokes the verdict callback outside the usual hot path but
// under m.mu; callbacks must not call back into the mesh.
func (m *Mesh) notifyVerdict(v Verdict, raised bool) {
	edge := "raised"
	if !raised {
		edge = "cleared"
	}
	m.logf("wdmesh: %s %s %s verdict on %s (votes=%d)", m.cfg.Self, edge, v.Kind, v.Node, v.Votes)
	if m.cfg.OnVerdict != nil {
		m.cfg.OnVerdict(v, raised)
	}
}

// Verdicts returns the current cluster verdicts, sorted by subject.
func (m *Mesh) Verdicts() []Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Verdict, 0, len(m.verdicts))
	for _, v := range m.verdicts {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// receive absorbs one inbound frame in one pass: ack evidence for the sender
// and the freshest-digest merge for its own digest and everything it relayed,
// then its observation set. Frames from outside the fixed membership are
// dropped: they carry no ack evidence and must not vote.
func (m *Mesh) receive(msg *Message) {
	if msg == nil || msg.From == m.cfg.Self {
		return
	}
	from, ok := m.byName[msg.From]
	if !ok {
		return
	}
	m.received.Add(1)
	now := m.clk.Now()
	m.mu.Lock()
	p := m.peers[from]
	if i, ok := m.byName[msg.Self.Node]; ok {
		m.absorbLocked(p, i, &msg.Self, now)
	}
	next := 0
	for k := range msg.Known {
		d := &msg.Known[k]
		if i, ok := m.seek(&next, d.Node); ok {
			m.absorbLocked(p, i, d, now)
		}
	}
	var kinds map[string]string
	for _, o := range msg.Obs {
		if o.Node == m.cfg.Self || o.Node == "" || o.Kind == ObsOK {
			continue
		}
		if kinds == nil {
			kinds = make(map[string]string, len(msg.Obs))
		}
		kinds[o.Node] = o.Kind
	}
	if kinds == nil {
		delete(m.obs, msg.From)
	} else {
		m.obs[msg.From] = obsRecord{at: now, kinds: kinds}
	}
	m.mu.Unlock()
}

// seek returns the index of peer name. Relayed digests arrive in name order,
// so it first scans m.order forward from *next, where the previous lookup
// matched, and usually finds name within a step or two; a name behind the
// cursor or outside the membership falls back to byName.
func (m *Mesh) seek(next *int, name string) (int, bool) {
	for j := *next; j < len(m.order); j++ {
		if o := &m.order[j]; o.name == name {
			*next = j + 1
			return o.idx, true
		} else if o.name > name {
			break
		}
	}
	i, ok := m.byName[name]
	return i, ok
}

// absorbLocked folds one digest from peer p's frame, for member index i, into
// the mesh. It records evidence that p knows d, resetting p's whole ack table
// when p's own digest shows a newer incarnation (a restarted peer forgot
// everything our stale acks claim it knows). It then keeps d if it is the
// freshest digest for i; replays and duplicates are rejected by (epoch, seq).
// Digests for nodes outside the fixed membership, self included, never get
// here. Callers hold m.mu.
func (m *Mesh) absorbLocked(p *peer, i int, d *Digest, now time.Time) {
	if i == p.idx && d.Epoch > p.lastEpoch {
		if p.lastEpoch != 0 {
			clear(p.acked)
		}
		p.lastEpoch = d.Epoch
	}
	if a := &p.acked[i]; !a.covers(d.Epoch, d.Seq) {
		*a = ackRef{epoch: d.Epoch, seq: d.Seq}
	}
	if m.present[i] && !FresherDigest(d, &m.digests[i]) {
		return
	}
	m.digests[i] = *d
	m.digests[i].gossiped = 0
	m.present[i] = true
	m.heard[i] = now
}

// sender drains one peer's queue, applying the per-attempt deadline and the
// capped, jittered exponential retry policy.
func (m *Mesh) sender(p *peer) {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case msg := <-p.queue:
			m.deliver(p, msg)
		}
	}
}

// deliver attempts one message with bounded retries; a message that exhausts
// its retry budget is abandoned (the next gossip round supersedes it anyway).
func (m *Mesh) deliver(p *peer, msg Message) {
	backoff := m.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.SendTimeout)
		err := m.cfg.Transport.Send(ctx, p.name, &msg)
		cancel()
		if err == nil || attempt >= m.cfg.Retries {
			m.noteSend(p, err)
			return
		}
		p.retries.Add(1)
		d := backoff
		if max := m.cfg.Interval; d > max {
			d = max
		}
		d += m.jitter(d / 2)
		t := m.clk.NewTimer(d)
		select {
		case <-m.stop:
			t.Stop()
			return
		case <-t.C():
		}
		backoff *= 2
	}
}

// noteSend folds one delivery outcome into the counters and the link health
// score: DemoteAfter consecutive failures demote the link out of the fanout
// sample set; a single success re-promotes it.
func (m *Mesh) noteSend(p *peer, err error) {
	if err == nil {
		p.sent.Add(1)
		m.sent.Add(1)
		p.consecFail.Store(0)
		if p.demoted.CompareAndSwap(true, false) {
			m.logf("wdmesh: %s re-promoted link to %s", m.cfg.Self, p.name)
		}
		return
	}
	p.failures.Add(1)
	if p.consecFail.Add(1) >= int64(m.cfg.DemoteAfter) {
		if p.demoted.CompareAndSwap(false, true) {
			m.logf("wdmesh: %s demoted flapping link to %s (%v)", m.cfg.Self, p.name, err)
		}
	}
}

// jitter returns a seeded random duration in [0, max).
func (m *Mesh) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return time.Duration(m.rng.Int63n(int64(max)))
}

func (m *Mesh) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// String identifies the mesh in logs.
func (m *Mesh) String() string {
	return fmt.Sprintf("wdmesh(%s, %d peers)", m.cfg.Self, len(m.peers))
}
