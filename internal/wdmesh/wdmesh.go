// Package wdmesh is the partition-tolerant cluster health plane: it carries
// each node's intrinsic watchdog verdicts to its peers over an extrinsic
// gossip channel, closing the gap the paper's §2 gray-failure argument leaves
// open in a cluster. An intrinsic watchdog catches the limping flusher that a
// heartbeat misses — but its verdict dies on the node that produced it, so a
// fail-slow kvsd still looks healthy to every peer that only measures
// reachability. wdmesh piggybacks a compact health Digest (worst checker
// status, abnormal checker names, alarm count) onto periodic peer exchanges,
// relays the freshest digests it knows (rumor spreading), and distinguishes
// two kinds of suspicion:
//
//	unreachable  no fresh digest — direct or relayed — within SuspectAfter:
//	             the classic extrinsic signal (crash, full partition).
//	wd-alarm     a fresh digest whose own watchdog reports abnormal: the
//	             intrinsic gray-failure signal a heartbeat cannot see.
//
// Cluster-level verdicts are gated by quorum corroboration: at least Quorum
// observers (this node plus peers whose relayed observations are fresh) must
// classify the same node the same way. Relaying makes one-way partitions
// benign — the cut-off side still hears the victim through a third node — and
// the quorum gate keeps a single confused observer from convicting a healthy
// peer.
//
// Dissemination scales to ~1000 nodes by sampling instead of broadcasting:
// each round the node picks Fanout peers (seeded, demoted links excluded) and
// sends each exactly one frame carrying its own digest plus a delta of
// relayed digests the peer has not evidenced knowing, least-gossiped first.
// Per-round message count is O(N·K) cluster-wide instead of the full mesh's
// O(N²). Acks are evidence-based (learned only from frames received from the
// peer, so lossy links cannot fake them), epochs detect restarts and reset
// stale acks, and a periodic anti-entropy round pushes one peer the complete
// table so rejoining nodes are repaired even when deltas would skip them.
// See DESIGN.md §12 for the suspicion-at-scale state machine.
//
// The mesh is built to share fate with nothing. There is one gossip round,
// run by Step on the caller's schedule or by the one goroutine Start
// launches, and it sends its frames inline under one budget (the Interval,
// capped at 2s). A frame whose turn comes after the budget is spent is
// dropped unsent and counted against its own peer, so a hung link never
// fails the links sampled after it. Per-peer link health demotes flapping
// links out of the sample set, there are no mesh-level retries (the next
// round supersedes a lost frame), and Close is bounded even when every link
// is black-holed. A full mesh outage degrades the cluster to node-local
// detection; it never wedges the watchdog driver or the runtime's
// Drain/Close ordering.
package wdmesh

import (
	"time"

	"gowatchdog/internal/watchdog"
)

// Digest is one node's self-assessment, produced by its own intrinsic
// watchdog and gossiped (directly and by relay) to every peer.
type Digest struct {
	// Node is the producing node's mesh identity.
	Node string `json:"node"`
	// Epoch is the producer's incarnation: it increases across process
	// restarts (default: boot time in nanoseconds) so a rebooted node's
	// seq-1 digest outranks its pre-crash seq-10000 one, and so peers can
	// detect the restart and reset their delta-suppression acks for it.
	Epoch int64 `json:"epoch,omitempty"`
	// Seq is the producer's monotonic digest sequence number within Epoch;
	// receivers keep only the freshest digest per node and deduplicate
	// replays with it.
	Seq uint64 `json:"seq"`
	// Time is the producer's clock when the digest was assembled.
	Time time.Time `json:"time"`
	// Healthy mirrors the producer's driver: no checker currently abnormal.
	Healthy bool `json:"healthy"`
	// Worst is the most severe current checker status.
	Worst watchdog.Status `json:"worst"`
	// Abnormal names the currently abnormal checkers (capped by the producer).
	Abnormal []string `json:"abnormal,omitempty"`
	// Alarms is the producer's process-lifetime alarm count.
	Alarms int64 `json:"alarms"`
}

// Observation kinds: how one node currently classifies a peer.
const (
	// ObsOK means a fresh digest was seen and it reports healthy.
	ObsOK = "ok"
	// ObsUnreachable means no fresh digest, direct or relayed, within
	// SuspectAfter — the extrinsic suspicion.
	ObsUnreachable = "unreachable"
	// ObsAlarming means a fresh digest was seen and its own watchdog reports
	// abnormal — the intrinsic gray-failure suspicion.
	ObsAlarming = "wd-alarm"
)

// Observation is one node's current classification of a peer, gossiped so
// other nodes can corroborate suspicion into cluster-level verdicts.
type Observation struct {
	Node string `json:"node"`
	Kind string `json:"kind"`
}

// Message is one gossip frame: the sender's own digest, a delta of relayed
// digests the receiver has not yet acknowledged, and the sender's current
// non-ok observations. One frame is sent per sampled peer per round.
type Message struct {
	From string `json:"from"`
	Self Digest `json:"self"`
	// Known relays third-party digests so one-way partitions do not blind
	// the cut-off side. In fanout gossip it is a delta: only digests the
	// receiver has not evidenced knowing (capped, least-gossiped first),
	// unless Full is set.
	Known []Digest `json:"known,omitempty"`
	// Obs carries the sender's abnormal observations for quorum
	// corroboration. ObsOK is implied by absence, so a healthy cluster
	// gossips no observations at all.
	Obs []Observation `json:"obs,omitempty"`
	// Full marks an anti-entropy frame: Known is the sender's complete
	// digest table, repairing receivers that rejoined after a partition or
	// restart with empty (or stale) state.
	Full bool `json:"full,omitempty"`
}

// FresherDigest reports whether a should replace b: a later incarnation
// always wins; within an incarnation the higher sequence number wins.
func FresherDigest(a, b *Digest) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	return a.Seq > b.Seq
}

// Verdict kinds.
const (
	// VerdictIntrinsic means quorum observers saw the node's own watchdog
	// alarm: the node is reachable but gray-failing.
	VerdictIntrinsic = "intrinsic"
	// VerdictUnreachable means quorum observers lost the node entirely.
	VerdictUnreachable = "unreachable"
)

// Verdict is a quorum-corroborated cluster-level judgement about one node.
type Verdict struct {
	// Node is the suspect.
	Node string `json:"node"`
	// Kind is VerdictIntrinsic or VerdictUnreachable.
	Kind string `json:"kind"`
	// Votes is how many observers corroborated (>= the configured quorum).
	Votes int `json:"votes"`
	// Since is when this node first reached the verdict.
	Since time.Time `json:"since"`
	// Worst carries the suspect's own worst checker status for intrinsic
	// verdicts (StatusHealthy otherwise).
	Worst watchdog.Status `json:"worst,omitempty"`
}

// statusSeverity orders statuses from benign to severe so digests can carry
// a single worst status; mirrors the wdobs /healthz ranking.
func statusSeverity(s watchdog.Status) int {
	switch s {
	case watchdog.StatusHealthy:
		return 0
	case watchdog.StatusContextPending, watchdog.StatusSkipped:
		return 1
	case watchdog.StatusSlow:
		return 2
	case watchdog.StatusError:
		return 3
	case watchdog.StatusCrashed:
		return 4
	case watchdog.StatusStuck:
		return 5
	default:
		return 3
	}
}

// WorseStatus returns the more severe of a and b under the digest ranking
// (healthy < pending/skipped < slow < error < crashed < stuck).
func WorseStatus(a, b watchdog.Status) watchdog.Status {
	if statusSeverity(b) > statusSeverity(a) {
		return b
	}
	return a
}
