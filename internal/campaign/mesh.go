package campaign

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
	"gowatchdog/internal/wdruntime"
)

// MeshConfig parameterizes one multi-node mesh campaign (RunMesh).
type MeshConfig struct {
	// Seed picks the fail-slow victim and the partitioned link.
	Seed int64
	// Nodes is the cluster size (default 3, minimum 3 so relay and quorum
	// corroboration are both exercised).
	Nodes int
	// Quorum is the cluster-verdict corroboration threshold (default 2).
	Quorum int
	// Interval is the shared check + gossip period (default 25ms). The
	// campaign runs on the real clock — the mesh is a real concurrent
	// system — so keep it large enough for CI scheduling noise.
	Interval time.Duration
}

// Mesh campaign phase lengths, in ticks of MeshConfig.Interval.
const (
	// meshWarmupTicks run fault-free; any cluster verdict raised here is a
	// false positive.
	meshWarmupTicks = 12
	// meshFaultTicks bound the fail-slow phase.
	meshFaultTicks = 40
	// meshClearTicks bound the post-fault clearing phase.
	meshClearTicks = 40
	// meshPartitionTicks bound the one-way-partition phase; any cluster
	// verdict raised here is a false positive.
	meshPartitionTicks = 30
)

func (c MeshConfig) withDefaults() MeshConfig {
	if c.Nodes < 3 {
		c.Nodes = 3
	}
	if c.Quorum <= 0 {
		c.Quorum = 2
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	return c
}

// meshScenario draws the campaign's seeded scenario over the node names: the
// fail-slow victim, then a one-way-partitioned link from>to between two
// distinct healthy nodes, so the relay path is what keeps the false-positive
// count at zero.
func meshScenario(seed int64, names []string) (victim, from, to string) {
	rng := rand.New(rand.NewSource(seed))
	victim = names[rng.Intn(len(names))]
	var healthy []string
	for _, n := range names {
		if n != victim {
			healthy = append(healthy, n)
		}
	}
	from = healthy[rng.Intn(len(healthy))]
	to = healthy[rng.Intn(len(healthy)-1)]
	if to == from {
		to = healthy[len(healthy)-1]
	}
	return victim, from, to
}

// MeshObserver is one peer's view of the injected remote fault.
type MeshObserver struct {
	// Node is the observing peer.
	Node string `json:"node"`
	// DetectLatencyNS is fault-armed to intrinsic-cluster-verdict latency.
	DetectLatencyNS int64 `json:"detect_latency_ns"`
	// HeartbeatSuspected reports whether the observer's reachability view
	// (last-heard freshness — what a plain heartbeat measures) ever
	// suspected the victim during the fault. The paper's argument predicts
	// false: the victim limps but keeps gossiping.
	HeartbeatSuspected bool `json:"heartbeat_suspected"`
}

// MeshVerdict is the machine-readable mesh-campaign outcome; CI gates on Pass.
type MeshVerdict struct {
	Substrate  string `json:"substrate"`
	Seed       int64  `json:"seed"`
	Nodes      int    `json:"nodes"`
	Quorum     int    `json:"quorum"`
	IntervalNS int64  `json:"interval_ns"`

	// FaultNode is the seeded fail-slow victim; FaultKind echoes the
	// injected manifestation.
	FaultNode string `json:"fault_node"`
	FaultKind string `json:"fault_kind"`

	// Detected reports whether every healthy peer reached an intrinsic
	// cluster verdict on the victim; Observers carries per-peer latencies.
	Detected  bool           `json:"detected"`
	Observers []MeshObserver `json:"observers"`
	// DetectP50NS/P95/Max summarize observer detection latencies.
	DetectP50NS int64 `json:"detect_p50_ns,omitempty"`
	DetectP95NS int64 `json:"detect_p95_ns,omitempty"`
	DetectMaxNS int64 `json:"detect_max_ns,omitempty"`
	// HeartbeatDetected reports whether plain reachability suspicion saw the
	// fail-slow fault on any observer (expected false: the gap the mesh
	// closes).
	HeartbeatDetected bool `json:"heartbeat_detected"`

	// Cleared reports whether every verdict cleared after the fault was
	// disarmed.
	Cleared bool `json:"cleared"`

	// PartitionLink is the seeded one-way-partitioned link ("from>to");
	// PartitionFalsePositives counts cluster verdicts raised anywhere during
	// the partition (want 0 with quorum >= 2: relay keeps the cut-off side
	// informed).
	PartitionLink           string `json:"partition_link"`
	PartitionFalsePositives int    `json:"partition_false_positives"`
	// WarmupFalsePositives counts cluster verdicts raised before any fault.
	WarmupFalsePositives int `json:"warmup_false_positives"`

	// QueueDrops/SendFailures total the mesh's share-fate counters across
	// nodes at the end of the run.
	QueueDrops   int64 `json:"queue_drops"`
	SendFailures int64 `json:"send_failures"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// meshNode is one cluster member under campaign.
type meshNode struct {
	name  string
	rt    *wdruntime.Runtime
	point string
}

// RunMesh executes the seeded multi-node mesh campaign: N wdruntime nodes on
// an in-process fault-injectable network, each running a latency-budgeted
// checker over its own fault point. Phases:
//
//  1. warmup — fault-free; cluster verdicts are false positives
//  2. fail-slow — a Delay fault on the seeded victim's operation turns its
//     own checker slow (intrinsic detection); peers must corroborate an
//     intrinsic cluster verdict while the victim's reachability stays fresh
//  3. clear — the fault is disarmed; verdicts must clear everywhere
//  4. one-way partition — a Drop fault on one seeded directional link; with
//     relay and quorum >= 2, no cluster verdict may be raised
func RunMesh(cfg MeshConfig) (*MeshVerdict, error) {
	cfg = cfg.withDefaults()
	inj := faultinject.New(clock.Real())
	net := wdmesh.NewMemNetwork(clock.Real(), inj)

	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}

	v := &MeshVerdict{
		Substrate:  "mesh",
		Seed:       cfg.Seed,
		Nodes:      cfg.Nodes,
		Quorum:     cfg.Quorum,
		IntervalNS: int64(cfg.Interval),
		FaultKind:  faultinject.Delay.String(),
	}

	// The victim's checker goes slow when its op point delays past the
	// latency budget.
	victim, from, to := meshScenario(cfg.Seed, names)
	v.FaultNode = victim
	v.PartitionLink = from + ">" + to

	slowBudget := cfg.Interval / 2
	nodes := make([]*meshNode, 0, cfg.Nodes)
	for _, name := range names {
		peers := make([]string, 0, len(names)-1)
		for _, p := range names {
			if p != name {
				peers = append(peers, p)
			}
		}
		rt, err := wdruntime.New(
			wdruntime.WithInterval(cfg.Interval),
			wdruntime.WithTimeout(8*cfg.Interval),
			wdruntime.WithJitterSeed(cfg.Seed),
			wdruntime.WithMesh(name, peers...),
			wdruntime.WithMeshTransport(net.Node(name)),
			wdruntime.WithMeshInterval(cfg.Interval),
			wdruntime.WithMeshQuorum(cfg.Quorum),
		)
		if err != nil {
			return nil, fmt.Errorf("campaign: mesh node %s: %w", name, err)
		}
		point := "mesh." + name + ".op"
		site := watchdog.Site{Function: "campaign.meshNode", Op: point}
		rt.Driver().Register(watchdog.NewChecker("op", func(wctx *watchdog.Context) error {
			return watchdog.OpTimed(wctx, site, slowBudget, nil, func() error {
				return inj.Fire(point)
			})
		}), watchdog.WithContext(readyContext()))
		if err := rt.Start(nil); err != nil {
			return nil, fmt.Errorf("campaign: mesh node %s start: %w", name, err)
		}
		nodes = append(nodes, &meshNode{name: name, rt: rt, point: point})
	}
	defer func() {
		for _, n := range nodes {
			_ = n.rt.Close()
		}
	}()

	sleepTicks := func(n int) { time.Sleep(time.Duration(n) * cfg.Interval) }
	verdictsRaised := func() int64 {
		var total int64
		for _, n := range nodes {
			total += n.rt.Mesh().Snapshot().VerdictsRaised
		}
		return total
	}

	// Phase 1: warmup.
	sleepTicks(meshWarmupTicks)
	v.WarmupFalsePositives = int(verdictsRaised())

	// Phase 2: fail-slow on the victim. The delay (2× the check interval)
	// blows the latency budget but stays far under the liveness timeout, so
	// the victim's own watchdog classifies it slow — and the victim keeps
	// gossiping throughout, which is what keeps heartbeats blind.
	var victimPoint string
	for _, n := range nodes {
		if n.name == victim {
			victimPoint = n.point
		}
	}
	armedAt := time.Now()
	inj.Arm(victimPoint, faultinject.Fault{Kind: faultinject.Delay, Delay: 2 * cfg.Interval})

	observers := make(map[string]*MeshObserver)
	for _, n := range nodes {
		if n.name != victim {
			observers[n.name] = &MeshObserver{Node: n.name, DetectLatencyNS: -1}
		}
	}
	deadline := time.Now().Add(meshFaultTicks * cfg.Interval)
	for time.Now().Before(deadline) {
		pending := 0
		for _, n := range nodes {
			if n.name == victim {
				continue
			}
			ob := observers[n.name]
			snap := n.rt.Mesh().Snapshot()
			for _, p := range snap.Peers {
				// The heartbeat view: would plain reachability freshness have
				// suspected the victim?
				if p.Node == victim && p.Observation == wdmesh.ObsUnreachable {
					ob.HeartbeatSuspected = true
					v.HeartbeatDetected = true
				}
			}
			if ob.DetectLatencyNS < 0 {
				for _, cv := range snap.Verdicts {
					if cv.Node == victim && cv.Kind == wdmesh.VerdictIntrinsic {
						ob.DetectLatencyNS = int64(time.Since(armedAt))
					}
				}
			}
			if ob.DetectLatencyNS < 0 {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		time.Sleep(cfg.Interval / 4)
	}

	v.Detected = true
	var lats []int64
	for _, ob := range observers {
		v.Observers = append(v.Observers, *ob)
		if ob.DetectLatencyNS < 0 {
			v.Detected = false
		} else {
			lats = append(lats, ob.DetectLatencyNS)
		}
	}
	sort.Slice(v.Observers, func(i, j int) bool { return v.Observers[i].Node < v.Observers[j].Node })
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		v.DetectP50NS = lats[len(lats)/2]
		v.DetectP95NS = lats[(len(lats)*95)/100]
		v.DetectMaxNS = lats[len(lats)-1]
	}

	// Phase 3: disarm and wait for every verdict to clear.
	inj.Disarm(victimPoint)
	deadline = time.Now().Add(meshClearTicks * cfg.Interval)
	for time.Now().Before(deadline) {
		open := 0
		for _, n := range nodes {
			open += len(n.rt.Mesh().Verdicts())
		}
		if open == 0 {
			v.Cleared = true
			break
		}
		time.Sleep(cfg.Interval / 4)
	}

	// Phase 4: one-way partition between two healthy nodes. Relay must keep
	// both sides informed; quorum must hold the verdict count at zero.
	baseline := verdictsRaised()
	inj.Arm(wdmesh.LinkPoint(from, to), faultinject.Fault{Kind: faultinject.Drop})
	sleepTicks(meshPartitionTicks)
	v.PartitionFalsePositives = int(verdictsRaised() - baseline)
	inj.Clear()

	for _, n := range nodes {
		snap := n.rt.Mesh().Snapshot()
		v.QueueDrops += snap.QueueDrops
		v.SendFailures += snap.SendFailures
	}

	if v.WarmupFalsePositives > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d cluster verdict(s) raised during fault-free warmup", v.WarmupFalsePositives))
	}
	if !v.Detected {
		v.Failures = append(v.Failures,
			"not every peer reached an intrinsic cluster verdict on the fail-slow node")
	}
	if v.HeartbeatDetected {
		v.Failures = append(v.Failures,
			"reachability (heartbeat) suspicion fired on a fail-slow fault — victim should have stayed fresh")
	}
	if !v.Cleared {
		v.Failures = append(v.Failures, "cluster verdicts did not clear after the fault was disarmed")
	}
	if v.PartitionFalsePositives > 0 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("%d cluster verdict(s) raised under the one-way partition", v.PartitionFalsePositives))
	}
	v.Pass = len(v.Failures) == 0
	return v, nil
}

// JSON renders the verdict for CI consumption.
func (v *MeshVerdict) JSON() ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Render formats the verdict for humans.
func (v *MeshVerdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign mesh seed=%d nodes=%d quorum=%d interval=%s\n",
		v.Seed, v.Nodes, v.Quorum, time.Duration(v.IntervalNS))
	fmt.Fprintf(&b, "  fail-slow on %s (%s): cluster-wide intrinsic detection %v, heartbeat detection %v\n",
		v.FaultNode, v.FaultKind, v.Detected, v.HeartbeatDetected)
	if len(v.Observers) > 0 && v.Detected {
		fmt.Fprintf(&b, "  detection latency p50=%s p95=%s max=%s\n",
			time.Duration(v.DetectP50NS), time.Duration(v.DetectP95NS), time.Duration(v.DetectMaxNS))
	}
	fmt.Fprintf(&b, "  verdicts cleared after disarm: %v\n", v.Cleared)
	fmt.Fprintf(&b, "  one-way partition %s: %d false positive(s); warmup false positives %d\n",
		v.PartitionLink, v.PartitionFalsePositives, v.WarmupFalsePositives)
	fmt.Fprintf(&b, "  mesh share-fate: queue drops %d, send failures %d\n",
		v.QueueDrops, v.SendFailures)
	if v.Pass {
		b.WriteString("  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(v.Failures, "; "))
	}
	return b.String()
}
