// Package meshscale runs the mesh-at-scale survival campaign (E17): hundreds
// to a thousand Step-mode wdmesh nodes on one virtual clock, driven through a
// seeded sequence of correlated partition, churn, and lossy-link faults, and
// scored on the properties the fanout rebuild must preserve — convergence,
// intrinsic-verdict latency, zero false positives, and O(N·K) message volume
// instead of the full mesh's O(N²).
//
// The campaign is deterministic: the same seed reproduces the same verdict
// bit for bit. Nodes run unstarted meshes advanced with Mesh.Step, the same
// round a started mesh runs on its own goroutine: every send happens inline
// in node order while the virtual clock advances one gossip interval per
// round.
//
// Phases:
//
//  1. converge — fault-free except ambient lossy/duplicating links; every
//     node must come to hold a digest for every other node. Any cluster
//     verdict raised here is a false positive.
//  2. fail-slow — one seeded victim's digest turns alarming; every observer
//     must corroborate an intrinsic cluster verdict. Per-observer latencies
//     (virtual time from fault to verdict) feed the reported percentiles.
//  3. clear — the victim recovers; every verdict must clear.
//  4. correlated partition — every link from a seeded 10% group A toward a
//     seeded 50% group B is cut one-way; the remaining 40% (group C) relays.
//     Any verdict raised during the partition is a false positive: relay must
//     keep B's view of A fresh.
//  5. churn — a seeded set of nodes is killed outright; every survivor must
//     convict each of them unreachable (true positives).
//  6. rejoin — the killed nodes come back with a fresh epoch and empty
//     state; anti-entropy and the epoch-triggered ack reset must rebuild
//     their tables and clear every verdict.
package meshscale

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdmesh"
)

// Config parameterizes one mesh-at-scale campaign run.
type Config struct {
	// Seed drives every random choice: victim, partition groups, churn set,
	// ambient fault links, per-node gossip jitter, and probabilistic faults.
	Seed int64
	// Nodes is the cluster size (default 500, minimum 16 so the partition
	// groups and quorum corroboration are all non-trivial).
	Nodes int
	// Fanout is the per-round gossip sample size (default 3).
	Fanout int
	// Quorum is the cluster-verdict corroboration threshold (default 2).
	Quorum int
	// Interval is the virtual gossip period (default 100ms). It only scales
	// the reported latencies; wall-clock cost depends on rounds alone.
	Interval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes < 16 {
		if c.Nodes <= 0 {
			c.Nodes = 500
		} else {
			c.Nodes = 16
		}
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.Quorum <= 0 {
		c.Quorum = 2
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// Verdict is the machine-readable campaign outcome; `make meshscale-smoke`
// gates on Pass.
type Verdict struct {
	Substrate  string `json:"substrate"`
	Seed       int64  `json:"seed"`
	Nodes      int    `json:"nodes"`
	Fanout     int    `json:"fanout"`
	Quorum     int    `json:"quorum"`
	IntervalNS int64  `json:"interval_ns"`
	// LossyLinks and DupLinks echo the ambient fault plan; SuspectRounds is
	// the cluster's scale-aware suspicion window in gossip rounds.
	LossyLinks    int `json:"lossy_links"`
	DupLinks      int `json:"dup_links"`
	SuspectRounds int `json:"suspect_rounds"`

	// Converged reports whether every node held every digest within the
	// converge cap; ConvergeRounds/ConvergeNS is how long that took.
	Converged      bool  `json:"converged"`
	ConvergeRounds int   `json:"converge_rounds"`
	ConvergeNS     int64 `json:"converge_ns"`

	// FaultNode is the seeded fail-slow victim. Detected reports whether
	// every observer reached an intrinsic verdict; the percentiles summarize
	// per-observer fault-to-verdict latency in virtual time.
	FaultNode   string `json:"fault_node"`
	Detected    bool   `json:"detected"`
	Observers   int    `json:"observers"`
	DetectP50NS int64  `json:"detect_p50_ns,omitempty"`
	DetectP95NS int64  `json:"detect_p95_ns,omitempty"`
	DetectP99NS int64  `json:"detect_p99_ns,omitempty"`
	DetectMaxNS int64  `json:"detect_max_ns,omitempty"`

	// Cleared reports whether every verdict cleared after the victim
	// recovered, within ClearRounds.
	Cleared     bool `json:"cleared"`
	ClearRounds int  `json:"clear_rounds"`

	// PartitionSpec describes the correlated cut ("|A|>|B| one-way");
	// PartitionLinksCut counts the armed link points. Any verdict raised
	// while the cut holds is a false positive.
	PartitionSpec           string `json:"partition_spec"`
	PartitionLinksCut       int    `json:"partition_links_cut"`
	PartitionRounds         int    `json:"partition_rounds"`
	PartitionFalsePositives int    `json:"partition_false_positives"`

	// ChurnKilled nodes were closed outright; ChurnDetected reports whether
	// every survivor convicted each of them unreachable within
	// ChurnDetectRounds.
	ChurnKilled       int  `json:"churn_killed"`
	ChurnDetected     bool `json:"churn_detected"`
	ChurnDetectRounds int  `json:"churn_detect_rounds"`

	// Repaired reports whether the rejoined nodes (fresh epoch, empty
	// state) rebuilt a full table and every verdict cleared within
	// RejoinRounds.
	Repaired     bool `json:"repaired"`
	RejoinRounds int  `json:"rejoin_rounds"`

	// Rounds and MessagesTotal cover the whole run; MsgPerRound must stay
	// under BudgetMsgPerRound = N·(K+2) (fanout + anti-entropy + probe
	// slack), far below BaselineMsgPerRound = N·(N-1), the full mesh's
	// per-round cost. VolumeRatio is MsgPerRound / BaselineMsgPerRound.
	Rounds              int     `json:"rounds"`
	MessagesTotal       int64   `json:"messages_total"`
	MsgPerRound         float64 `json:"msg_per_round"`
	BudgetMsgPerRound   int64   `json:"budget_msg_per_round"`
	BaselineMsgPerRound int64   `json:"baseline_msg_per_round"`
	VolumeRatio         float64 `json:"volume_ratio"`

	// FalsePositives totals verdicts raised where none were warranted:
	// during converge, on non-victims during fail-slow, during the
	// partition, and on live nodes during churn.
	FalsePositives int `json:"false_positives"`

	// DeltaEntries, FullSyncs, and SendFailures total the dissemination
	// counters across nodes at the end of the run.
	DeltaEntries int64 `json:"delta_entries"`
	FullSyncs    int64 `json:"full_syncs"`
	SendFailures int64 `json:"send_failures"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// cluster is the stepped simulation state.
type cluster struct {
	cfg    Config
	clk    *clock.Virtual
	inj    *faultinject.Injector
	net    *wdmesh.MemNetwork
	names  []string
	nodes  []*wdmesh.Mesh // nil = killed
	sick   []bool
	rounds int
}

// addNode builds one Step-mode mesh; epoch distinguishes incarnations so a
// rejoining node resets its peers' ack tables.
//
//wdlint:ignore runtimecfg the campaign steps raw unstarted meshes on a virtual clock; wdruntime would start real gossip goroutines and break determinism
func (c *cluster) addNode(i int, epoch int64) (*wdmesh.Mesh, error) {
	name := c.names[i]
	peers := make([]string, 0, len(c.names)-1)
	for _, p := range c.names {
		if p != name {
			peers = append(peers, p)
		}
	}
	idx := i
	return wdmesh.New(wdmesh.Config{
		Self:       name,
		Peers:      peers,
		Interval:   c.cfg.Interval,
		Quorum:     c.cfg.Quorum,
		Fanout:     c.cfg.Fanout,
		Epoch:      epoch,
		JitterSeed: c.cfg.Seed + int64(i)*7919 + 1,
		Clock:      c.clk,
		Transport:  c.net.Node(name),
		Source: func() wdmesh.Digest {
			if c.sick[idx] {
				return wdmesh.Digest{Healthy: false, Worst: watchdog.StatusStuck, Abnormal: []string{"op"}}
			}
			return wdmesh.Digest{Healthy: true, Worst: watchdog.StatusHealthy}
		},
	})
}

// step advances the virtual clock one interval and runs every live node's
// round in index order — the deterministic heart of the campaign.
func (c *cluster) step() {
	c.clk.Advance(c.cfg.Interval)
	for _, m := range c.nodes {
		if m != nil {
			m.Step()
		}
	}
	c.rounds++
}

// raised sums the monotonic raise counter across live nodes. It walks full
// snapshots (O(N²)), so callers only use it at phase boundaries.
func (c *cluster) raised() int64 {
	var total int64
	for _, m := range c.nodes {
		if m != nil {
			total += m.Snapshot().VerdictsRaised
		}
	}
	return total
}

// noVerdicts reports whether no live node holds any cluster verdict.
func (c *cluster) noVerdicts() bool {
	for _, m := range c.nodes {
		if m != nil && len(m.Verdicts()) != 0 {
			return false
		}
	}
	return true
}

// Run executes the campaign. The verdict is deterministic in cfg.
func Run(cfg Config) (*Verdict, error) {
	cfg = cfg.withDefaults()
	n := cfg.Nodes
	rng := rand.New(rand.NewSource(cfg.Seed))
	clk := clock.NewVirtual()
	inj := faultinject.New(clk)
	inj.Seed(cfg.Seed)

	c := &cluster{
		cfg:   cfg,
		clk:   clk,
		inj:   inj,
		net:   wdmesh.NewMemNetwork(clk, inj),
		names: make([]string, n),
		nodes: make([]*wdmesh.Mesh, n),
		sick:  make([]bool, n),
	}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("n%04d", i)
	}
	for i := range c.nodes {
		m, err := c.addNode(i, 1)
		if err != nil {
			return nil, fmt.Errorf("meshscale: node %s: %w", c.names[i], err)
		}
		c.nodes[i] = m
	}

	// Ambient lossy and duplicating links, armed for the whole run: n/2
	// links drop and n/4 duplicate a quarter of their frames. Gossip has to
	// converge through them, which is why redundant fanout paths matter.
	// The link set is seeded, directed, and self-loop-free.
	lossyLinks, dupLinks := n/2, n/4
	pickLink := func() (int, int) {
		from := rng.Intn(n)
		to := rng.Intn(n - 1)
		if to >= from {
			to++
		}
		return from, to
	}
	for i := 0; i < lossyLinks; i++ {
		from, to := pickLink()
		inj.Arm(wdmesh.LinkPoint(c.names[from], c.names[to]),
			faultinject.Fault{Kind: faultinject.Drop, Prob: 0.25})
	}
	for i := 0; i < dupLinks; i++ {
		from, to := pickLink()
		inj.Arm(wdmesh.LinkPoint(c.names[from], c.names[to]),
			faultinject.Fault{Kind: faultinject.Duplicate, Prob: 0.25})
	}

	// The phase caps, in rounds, scale with the cluster's scale-aware
	// suspicion window. Remote complaints linger until the observation table
	// prunes them (4× the suspicion window), so clearing is the slowest
	// transition.
	suspectRounds := int(c.nodes[0].SuspectAfter() / cfg.Interval)
	convergeRounds := 4*suspectRounds + 40
	detectRounds := 4*suspectRounds + 40
	clearRounds := 6*suspectRounds + 40
	partitionRounds := 2*suspectRounds + 10
	repairRounds := 8*suspectRounds + 80

	v := &Verdict{
		Substrate:     "meshscale",
		Seed:          cfg.Seed,
		Nodes:         n,
		Fanout:        cfg.Fanout,
		Quorum:        cfg.Quorum,
		IntervalNS:    int64(cfg.Interval),
		LossyLinks:    lossyLinks,
		DupLinks:      dupLinks,
		SuspectRounds: suspectRounds,
	}

	// Seeded roles, all drawn before the first step: the fail-slow victim,
	// the partition groups (A cut one-way toward B, C relays), and the
	// churn kills (n/100 of them, at least 2, never the victim, so phase
	// bookkeeping stays disjoint).
	victim := rng.Intn(n)
	v.FaultNode = c.names[victim]
	perm := rng.Perm(n)
	groupA := perm[:n/10]
	groupB := perm[n/10 : n/10+n/2]
	churnKills := max(n/100, 2)
	kills := make([]int, 0, churnKills)
	for _, i := range rng.Perm(n) {
		if i != victim && len(kills) < churnKills {
			kills = append(kills, i)
		}
	}
	sort.Ints(kills)

	// Phase 1: converge.
	allKnow := func() bool {
		for _, m := range c.nodes {
			if m != nil && m.KnownCount() != n-1 {
				return false
			}
		}
		return true
	}
	for c.rounds < convergeRounds && !allKnow() {
		c.step()
	}
	v.Converged = allKnow()
	v.ConvergeRounds = c.rounds
	v.ConvergeNS = int64(c.rounds) * int64(cfg.Interval)
	v.FalsePositives += int(c.raised())

	// Phase 2: fail-slow. The victim keeps gossiping — its digest just
	// turns alarming — so detection must come from intrinsic corroboration,
	// not reachability.
	c.sick[victim] = true
	faultRound := c.rounds
	detectRound := make([]int, n) // 0 = not yet; observers only
	for i := range detectRound {
		detectRound[i] = -1
	}
	detected := func() bool {
		all := true
		for i, m := range c.nodes {
			if i == victim || m == nil {
				continue
			}
			if detectRound[i] >= 0 {
				continue
			}
			hit := false
			for _, cv := range m.Verdicts() {
				if cv.Node == v.FaultNode && cv.Kind == wdmesh.VerdictIntrinsic {
					hit = true
				}
			}
			if hit {
				detectRound[i] = c.rounds
			} else {
				all = false
			}
		}
		return all
	}
	for r := 0; r < detectRounds && !detected(); r++ {
		c.step()
	}
	v.Detected = detected()
	// Any standing verdict on a non-victim at the end of the phase is a
	// false positive (counted once, not per poll).
	for _, m := range c.nodes {
		if m == nil {
			continue
		}
		for _, cv := range m.Verdicts() {
			if cv.Node != v.FaultNode {
				v.FalsePositives++
			}
		}
	}
	var lats []int64
	for i, r := range detectRound {
		if i == victim || c.nodes[i] == nil {
			continue
		}
		v.Observers++
		if r >= 0 {
			lats = append(lats, int64(r-faultRound)*int64(cfg.Interval))
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		v.DetectP50NS = lats[len(lats)/2]
		v.DetectP95NS = lats[(len(lats)*95)/100]
		v.DetectP99NS = lats[(len(lats)*99)/100]
		v.DetectMaxNS = lats[len(lats)-1]
	}

	// Phase 3: clear.
	c.sick[victim] = false
	clearStart := c.rounds
	for r := 0; r < clearRounds && !c.noVerdicts(); r++ {
		c.step()
	}
	v.Cleared = c.noVerdicts()
	v.ClearRounds = c.rounds - clearStart

	// Phase 4: correlated one-way partition. Every A→B link drops; C hears
	// A directly and B hears C, so relay keeps every view fresh enough that
	// no verdict may be raised.
	v.PartitionSpec = fmt.Sprintf("%d>%d one-way", len(groupA), len(groupB))
	for _, a := range groupA {
		for _, b := range groupB {
			inj.Arm(wdmesh.LinkPoint(c.names[a], c.names[b]),
				faultinject.Fault{Kind: faultinject.Drop})
			v.PartitionLinksCut++
		}
	}
	base := c.raised()
	for r := 0; r < partitionRounds; r++ {
		c.step()
	}
	v.PartitionRounds = partitionRounds
	v.PartitionFalsePositives = int(c.raised() - base)
	v.FalsePositives += v.PartitionFalsePositives
	// Healing disarms the cut links; ambient faults that happened to share
	// a link point are gone too, which only makes the tail calmer.
	for _, a := range groupA {
		for _, b := range groupB {
			inj.Disarm(wdmesh.LinkPoint(c.names[a], c.names[b]))
		}
	}

	// Phase 5: churn. Killed nodes detach from the network outright;
	// every survivor must convict each of them.
	for _, i := range kills {
		_ = c.nodes[i].Close()
		c.nodes[i] = nil
	}
	v.ChurnKilled = len(kills)
	convicted := func() bool {
		for _, m := range c.nodes {
			if m == nil {
				continue
			}
			for _, i := range kills {
				if m.Observation(c.names[i]) == wdmesh.ObsOK {
					return false
				}
				hit := false
				for _, cv := range m.Verdicts() {
					if cv.Node == c.names[i] && cv.Kind == wdmesh.VerdictUnreachable {
						hit = true
					}
				}
				if !hit {
					return false
				}
			}
		}
		return true
	}
	churnStart := c.rounds
	for r := 0; r < detectRounds+2*suspectRounds && !convicted(); r++ {
		c.step()
	}
	v.ChurnDetected = convicted()
	v.ChurnDetectRounds = c.rounds - churnStart
	// Verdicts on live nodes during churn are false positives.
	liveFP := 0
	for _, m := range c.nodes {
		if m == nil {
			continue
		}
		for _, cv := range m.Verdicts() {
			killedOne := false
			for _, i := range kills {
				if cv.Node == c.names[i] {
					killedOne = true
				}
			}
			if !killedOne {
				liveFP++
			}
		}
	}
	v.FalsePositives += liveFP

	// Phase 6: rejoin with a fresh incarnation and empty state.
	for _, i := range kills {
		m, err := c.addNode(i, 2)
		if err != nil {
			return nil, fmt.Errorf("meshscale: rejoin %s: %w", c.names[i], err)
		}
		c.nodes[i] = m
	}
	repaired := func() bool {
		for _, i := range kills {
			if c.nodes[i].KnownCount() != n-1 {
				return false
			}
		}
		return c.noVerdicts()
	}
	rejoinStart := c.rounds
	for r := 0; r < repairRounds && !repaired(); r++ {
		c.step()
	}
	v.Repaired = repaired()
	v.RejoinRounds = c.rounds - rejoinStart

	// Final accounting: one full snapshot sweep.
	v.Rounds = c.rounds
	for _, m := range c.nodes {
		if m == nil {
			continue
		}
		snap := m.Snapshot()
		v.MessagesTotal += snap.MessagesSent
		v.DeltaEntries += snap.DeltaEntries
		v.FullSyncs += snap.FullSyncs
		v.SendFailures += snap.SendFailures
	}
	if c.rounds > 0 {
		v.MsgPerRound = float64(v.MessagesTotal) / float64(c.rounds)
	}
	v.BudgetMsgPerRound = int64(n * (cfg.Fanout + 2))
	v.BaselineMsgPerRound = int64(n * (n - 1))
	v.VolumeRatio = v.MsgPerRound / float64(v.BaselineMsgPerRound)

	if !v.Converged {
		v.Failures = append(v.Failures,
			fmt.Sprintf("cluster did not converge within %d rounds", convergeRounds))
	}
	if !v.Detected {
		v.Failures = append(v.Failures,
			"not every observer reached an intrinsic verdict on the fail-slow node")
	}
	if !v.Cleared {
		v.Failures = append(v.Failures, "verdicts did not clear after the victim recovered")
	}
	if v.PartitionFalsePositives > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d verdict(s) raised under the correlated one-way partition", v.PartitionFalsePositives))
	}
	if !v.ChurnDetected {
		v.Failures = append(v.Failures, "survivors did not convict every killed node")
	}
	if !v.Repaired {
		v.Failures = append(v.Failures, "rejoined nodes did not repair to a full table with all verdicts cleared")
	}
	if v.FalsePositives > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d false positive verdict(s) across benign phases", v.FalsePositives))
	}
	if v.MsgPerRound > float64(v.BudgetMsgPerRound) {
		v.Failures = append(v.Failures,
			fmt.Sprintf("message volume %.1f/round exceeds the O(N·K) budget %d", v.MsgPerRound, v.BudgetMsgPerRound))
	}
	v.Pass = len(v.Failures) == 0
	return v, nil
}

// JSON renders the verdict for machine consumption (wdchaos -json).
func (v *Verdict) JSON() ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Render formats the verdict for humans.
func (v *Verdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign meshscale seed=%d nodes=%d fanout=%d quorum=%d interval=%s\n",
		v.Seed, v.Nodes, v.Fanout, v.Quorum, time.Duration(v.IntervalNS))
	fmt.Fprintf(&b, "  ambient faults: %d lossy link(s), %d duplicating link(s); suspicion window %d rounds\n",
		v.LossyLinks, v.DupLinks, v.SuspectRounds)
	fmt.Fprintf(&b, "  converged %v in %d rounds (%s)\n",
		v.Converged, v.ConvergeRounds, time.Duration(v.ConvergeNS))
	fmt.Fprintf(&b, "  fail-slow on %s: detected %v across %d observers", v.FaultNode, v.Detected, v.Observers)
	if v.Detected {
		fmt.Fprintf(&b, " (p50=%s p95=%s p99=%s max=%s)",
			time.Duration(v.DetectP50NS), time.Duration(v.DetectP95NS),
			time.Duration(v.DetectP99NS), time.Duration(v.DetectMaxNS))
	}
	fmt.Fprintf(&b, "; cleared %v in %d rounds\n", v.Cleared, v.ClearRounds)
	fmt.Fprintf(&b, "  partition %s (%d links, %d rounds): %d false positive(s)\n",
		v.PartitionSpec, v.PartitionLinksCut, v.PartitionRounds, v.PartitionFalsePositives)
	fmt.Fprintf(&b, "  churn: %d killed, convicted everywhere %v in %d rounds; rejoined and repaired %v in %d rounds\n",
		v.ChurnKilled, v.ChurnDetected, v.ChurnDetectRounds, v.Repaired, v.RejoinRounds)
	fmt.Fprintf(&b, "  volume: %.1f msg/round over %d rounds — budget %d (N·(K+2)), full-mesh baseline %d (ratio %.4f)\n",
		v.MsgPerRound, v.Rounds, v.BudgetMsgPerRound, v.BaselineMsgPerRound, v.VolumeRatio)
	fmt.Fprintf(&b, "  dissemination: %d delta entries, %d full syncs, %d send failures; false positives %d\n",
		v.DeltaEntries, v.FullSyncs, v.SendFailures, v.FalsePositives)
	if v.Pass {
		b.WriteString("  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(v.Failures, "; "))
	}
	return b.String()
}
