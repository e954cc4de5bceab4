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
	// Epoch is this node's incarnation number, carried in every digest so
	// peers detect restarts (default: clock now in nanoseconds at New).
	// Deterministic campaigns set it explicitly.
	Epoch int64
	// JitterSeed seeds fanout sampling (default 1).
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

// antiEntropyEvery makes every Nth round push one sampled peer a Full frame
// carrying the complete digest table. This is the repair path for nodes
// rejoining after a partition or restart, whose stale acks would otherwise
// suppress the deltas they need.
const antiEntropyEvery = 8

// demoteAfter consecutive failed sends demote a link out of the fanout sample
// set. Demoted links still get probe and anti-entropy traffic, and one
// success re-promotes them.
const demoteAfter = 3

// probeEvery makes every Nth round probe one demoted link, so a healed peer
// is re-promoted promptly.
const probeEvery = 4

// maxSendBudget caps one round's send budget, which is otherwise the
// Interval, so a hung link never holds a round for more than a couple of
// seconds.
const maxSendBudget = 2 * time.Second

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

// peer is the per-peer send side: drop/failure counters, link health, and
// the ack table driving delta suppression.
type peer struct {
	name string
	idx  int

	// drops counts frames left unsent because the round's send budget ran
	// out before their turn; failures counts frames whose Send failed.
	drops    atomic.Int64
	failures atomic.Int64
	sent     atomic.Int64

	// consecFail counts consecutive failed sends; demoteAfter of them demote
	// the link out of the fanout sample set until a probe succeeds.
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

// obsRecord is one observer's most recent abnormal-observation set, held in
// Mesh.obs at the observer's index. A frame with none empties kinds, which
// clears the observer's previous suspicions; the slice keeps its capacity for
// the next frame.
type obsRecord struct {
	at    time.Time
	kinds []obsKind
}

// obsKind is one relayed non-ok observation: the subject's index and kind.
type obsKind struct {
	subject int
	kind    string
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

	// demotedLinks counts the peers whose demoted flag is set, so a round
	// with no demoted link samples without loading every peer's flag.
	demotedLinks atomic.Int64

	// mu guards the round state below. The slices from digests to obsPos
	// hold per-peer state, indexed like peers.
	mu       sync.Mutex
	seq      uint64
	round    uint64
	digests  []Digest           // freshest known digest
	gossiped []uint32           // frames the stored digest went into since it arrived
	present  []bool             // whether any digest has been seen
	heard    []time.Time        // when a fresh digest last arrived
	obs      []obsRecord        // the peer's latest relayed observations, as observer
	votes    []voteTally        // reused per-round tallies, as subject
	suspect  []bool             // reused per-round verdict candidate marks
	obsPos   []int              // reused per-frame: 1 + subject's position in kinds
	verdicts map[string]Verdict // standing cluster verdicts by subject
	rng      *rand.Rand         // fanout sampling
	scratch  []int              // reused per-round sample buffer
	targets  []target           // reused per-round destinations
	cand     []int              // reused per-frame delta candidates, in name order
	ranked   []int              // reused MaxDelta ranking buffer
	// frames holds the last round's frames. A round reuses the slots and
	// their Known buffers, so a steady-state round allocates no frame
	// storage; rounds never overlap, so the previous round's sends are done.
	frames []outFrame

	begun    bool // handler installed, heard seeded (Start or first Step)
	started  bool // Start launched the gossip loop; Step is refused
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
		verdicts: make(map[string]Verdict),
		stop:     make(chan struct{}),
	}
	seen := map[string]bool{cfg.Self: true}
	for _, name := range cfg.Peers {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		p := &peer{name: name, idx: len(m.peers)}
		m.byName[name] = len(m.peers)
		m.peers = append(m.peers, p)
	}
	if len(m.peers) == 0 {
		return nil, errors.New("wdmesh: no peers besides self")
	}
	n := len(m.peers)
	m.digests = make([]Digest, n)
	m.gossiped = make([]uint32, n)
	m.present = make([]bool, n)
	m.heard = make([]time.Time, n)
	m.obs = make([]obsRecord, n)
	m.votes = make([]voteTally, n)
	m.suspect = make([]bool, n)
	m.obsPos = make([]int, n)
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

// Start launches the gossip loop: one goroutine that runs the round Step
// runs, once per Interval, until Close. It is not idempotent; call once. A
// mesh driven by Step must not call Start.
func (m *Mesh) Start() {
	m.mu.Lock()
	if m.begun {
		m.mu.Unlock()
		panic("wdmesh: Start after Start or Step")
	}
	m.started = true
	m.beginLocked()
	m.mu.Unlock()

	m.wg.Add(1)
	go m.gossipLoop()
	m.logf("wdmesh: %s gossiping to %d peer(s) every %v (fanout %d, suspect-after %v, quorum %d)",
		m.cfg.Self, len(m.peers), m.cfg.Interval, m.cfg.Fanout, m.cfg.SuspectAfter, m.cfg.Quorum)
}

// Step runs one gossip round in the calling goroutine, on the caller's
// schedule: the round a started mesh runs each Interval. Combined with a
// virtual clock and an in-process network it makes thousand-node campaigns
// deterministic: same seeds and same step order give bit-identical state.
// Calls must not overlap, and a mesh that called Start must not Step.
func (m *Mesh) Step() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		panic("wdmesh: Step after Start")
	}
	m.beginLocked()
	m.mu.Unlock()
	m.gossipRound()
}

// Close stops gossiping and releases the transport. It is bounded even when
// every link is down: a round in flight ends within its send budget.
func (m *Mesh) Close() error {
	m.closeOne.Do(func() {
		close(m.stop)
		err := m.cfg.Transport.Close()
		m.wg.Wait()
		m.closeErr = err
	})
	return m.closeErr
}

// gossipLoop runs one gossip round per interval until Close.
func (m *Mesh) gossipLoop() {
	defer m.wg.Done()
	ticker := m.clk.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		m.gossipRound()
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

// gossipRound builds this round's frames and sends them in order under one
// budget, the Interval capped at maxSendBudget, counted from the first
// send. A frame whose turn comes after the budget is spent is not
// attempted: it counts as a drop for its peer, not as a send failure, so a
// hung link can never fail or demote the links sampled after it. Demoted
// and anti-entropy targets come after the fanout sample.
func (m *Mesh) gossipRound() {
	frames := m.buildRound()
	ctx, cancel := context.WithTimeout(context.Background(), min(m.cfg.Interval, maxSendBudget))
	defer cancel()
	for i := range frames {
		f := &frames[i]
		if ctx.Err() != nil {
			f.p.drops.Add(1)
			continue
		}
		m.noteSend(f.p, m.cfg.Transport.Send(ctx, f.p.name, &f.msg))
	}
}

// buildRound assembles this round's digest, re-evaluates suspicion and
// verdicts, samples the fanout targets, and builds one delta frame per
// target into the reused m.frames.
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
	cutoff := now.Add(-m.cfg.SuspectAfter)
	m.evaluateVerdictsLocked(now, cutoff)
	obs := m.localObsLocked(cutoff)
	targets := m.sampleLocked()
	if n := len(targets) - len(m.frames); n > 0 {
		m.frames = append(m.frames, make([]outFrame, n)...)
	}
	frames := m.frames[:len(targets)]
	for i, t := range targets {
		f := &frames[i]
		known := m.deltaLocked(t.p, t.full, f.msg.Known[:0])
		f.p = t.p
		f.msg = Message{From: m.cfg.Self, Self: d, Known: known, Obs: obs, Full: t.full}
		if t.full {
			m.fullSyncs.Add(1)
		}
		m.deltaEntries.Add(int64(len(known)))
	}
	return frames
}

// target is one sampled destination for this round.
type target struct {
	p    *peer
	full bool
}

// sampleLocked picks this round's destinations, into the reused m.targets:
// Fanout healthy links chosen uniformly (seeded), one demoted link probed
// every probeEvery rounds, and — every antiEntropyEvery rounds — one peer
// flagged for a full-table anti-entropy frame. Callers hold m.mu.
func (m *Mesh) sampleLocked() []target {
	eligible := m.scratch[:0]
	var demoted []int
	if m.demotedLinks.Load() == 0 {
		for i := range m.peers {
			eligible = append(eligible, i)
		}
	} else {
		for i, p := range m.peers {
			if p.demoted.Load() {
				demoted = append(demoted, i)
			} else {
				eligible = append(eligible, i)
			}
		}
	}
	k := m.cfg.Fanout
	if k > len(eligible) {
		k = len(eligible)
	}
	// Partial Fisher–Yates: the first k entries become the sample.
	for i := 0; i < k; i++ {
		j := i + m.rng.Intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	targets := m.targets[:0]
	for _, idx := range eligible[:k] {
		targets = append(targets, target{p: m.peers[idx]})
	}
	if len(demoted) > 0 && m.round%probeEvery == 0 {
		idx := demoted[m.rng.Intn(len(demoted))]
		targets = append(targets, target{p: m.peers[idx]})
	}
	if m.round%antiEntropyEvery == 0 {
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
	m.targets = targets
	return targets
}

// deltaLocked appends to out the relayed digests for one frame, in name
// order: everything the peer has not evidenced knowing (or the complete
// table for a full frame), capped at MaxDelta with least-gossiped entries
// first so fresh rumors win the budget. Callers hold m.mu.
func (m *Mesh) deltaLocked(p *peer, full bool, out []Digest) []Digest {
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
	out = slices.Grow(out, len(cand))
	for _, i := range cand {
		m.gossiped[i]++
		out = append(out, m.digests[i])
	}
	return out
}

// leastGossipedLocked narrows cand to the MaxDelta entries that rank first
// by (gossiped, index), keeping cand's name order. Callers hold m.mu.
func (m *Mesh) leastGossipedLocked(cand []int) []int {
	rank := func(a, b int) int {
		if ga, gb := m.gossiped[a], m.gossiped[b]; ga != gb {
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
func (m *Mesh) localObsLocked(cutoff time.Time) []Observation {
	n := len(m.peers)
	var out []Observation
	start := int(m.round) % n
	for off := 0; off < n && len(out) < maxObsPerFrame; off++ {
		i := (start + off) % n
		if kind := m.observationLocked(i, cutoff); kind != ObsOK {
			out = append(out, Observation{Node: m.peers[i].name, Kind: kind})
		}
	}
	return out
}

// observationLocked classifies one peer index; cutoff is now minus
// SuspectAfter, so a peer last heard before it is unreachable. Callers hold
// m.mu.
func (m *Mesh) observationLocked(i int, cutoff time.Time) string {
	if !m.begun || m.heard[i].Before(cutoff) {
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
	return m.observationLocked(i, m.clk.Now().Add(-m.cfg.SuspectAfter))
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
// that hold a standing verdict) are tallied. cutoff is now minus SuspectAfter.
// Callers hold m.mu.
func (m *Mesh) evaluateVerdictsLocked(now, cutoff time.Time) {
	// One pass over observer records tallies every remote complaint and
	// prunes observers that have been silent for several suspicion windows.
	// A healthy cluster has no records with kinds.
	prune := now.Add(-4 * m.cfg.SuspectAfter)
	for o := range m.obs {
		rec := &m.obs[o]
		if len(rec.kinds) == 0 {
			continue
		}
		if rec.at.Before(prune) {
			rec.kinds = rec.kinds[:0]
			continue
		}
		if rec.at.Before(cutoff) {
			continue // the observer itself has gone quiet; its view is stale
		}
		for _, k := range rec.kinds {
			m.suspect[k.subject] = true
			switch k.kind {
			case ObsAlarming:
				m.votes[k.subject].alarming++
			case ObsUnreachable:
				m.votes[k.subject].unreachable++
			}
		}
	}

	// Candidates, marked by peer index: remotely complained-about peers
	// (above), locally suspect peers, and standing verdicts (which must be
	// re-checked to clear). They are evaluated in name order; every tallied
	// subject is a candidate, so the loop also zeroes every tally.
	for i := range m.peers {
		if m.observationLocked(i, cutoff) != ObsOK {
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
		tally := m.votes[i]
		m.votes[i] = voteTally{}
		switch m.observationLocked(i, cutoff) {
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
// dropped: they carry no ack evidence and must not vote. So are observations
// of non-members, which could never become verdict candidates, and a node's
// opinion of itself, which its digest already carries and which is not
// corroboration.
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
	defer m.mu.Unlock()
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
	rec := &m.obs[from]
	rec.at = now
	rec.kinds = rec.kinds[:0]
	for _, o := range msg.Obs {
		if o.Kind == ObsOK {
			continue
		}
		subject, ok := m.byName[o.Node]
		if !ok || subject == from {
			continue
		}
		if pos := m.obsPos[subject]; pos > 0 {
			rec.kinds[pos-1].kind = o.Kind // a repeated subject: the later entry wins
			continue
		}
		rec.kinds = append(rec.kinds, obsKind{subject: subject, kind: o.Kind})
		m.obsPos[subject] = len(rec.kinds)
	}
	for _, k := range rec.kinds {
		m.obsPos[k.subject] = 0
	}
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
	m.gossiped[i] = 0
	m.present[i] = true
	m.heard[i] = now
}

// noteSend folds one send outcome into the counters and the link health
// score: demoteAfter consecutive failures demote the link out of the fanout
// sample set; a single success re-promotes it.
func (m *Mesh) noteSend(p *peer, err error) {
	if err == nil {
		p.sent.Add(1)
		m.sent.Add(1)
		p.consecFail.Store(0)
		if p.demoted.CompareAndSwap(true, false) {
			m.demotedLinks.Add(-1)
			m.logf("wdmesh: %s re-promoted link to %s", m.cfg.Self, p.name)
		}
		return
	}
	p.failures.Add(1)
	if p.consecFail.Add(1) >= demoteAfter {
		if p.demoted.CompareAndSwap(false, true) {
			m.demotedLinks.Add(1)
			m.logf("wdmesh: %s demoted flapping link to %s (%v)", m.cfg.Self, p.name, err)
		}
	}
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
