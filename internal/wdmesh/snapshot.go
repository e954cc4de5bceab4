package wdmesh

import (
	"sort"

	"gowatchdog/internal/watchdog"
)

// PeerSnapshot is the observable state of one peer link.
type PeerSnapshot struct {
	// Node is the peer's mesh identity.
	Node string `json:"node"`
	// Observation is this node's current classification (ObsOK /
	// ObsUnreachable / ObsAlarming).
	Observation string `json:"observation"`
	// LastHeardNS is nanoseconds since a fresh digest for the peer last
	// arrived (direct or relayed); -1 means never.
	LastHeardNS int64 `json:"last_heard_ns"`
	// Seq is the freshest digest sequence number seen from the peer.
	Seq uint64 `json:"seq"`
	// Worst is the peer's self-reported worst checker status.
	Worst watchdog.Status `json:"worst,omitempty"`
	// QueueDrops counts frames to the peer dropped unsent: the round's send
	// budget ran out before their turn.
	QueueDrops int64 `json:"queue_drops"`
	// SendFailures counts frames to the peer whose send failed.
	SendFailures int64 `json:"send_failures"`
	// Sent counts messages successfully handed to the transport.
	Sent int64 `json:"sent"`
	// ConsecFailures is the link's current consecutive-failure streak.
	ConsecFailures int64 `json:"consec_failures,omitempty"`
	// Demoted marks a flapping link currently excluded from the fanout
	// sample set (it still receives probe and anti-entropy traffic).
	Demoted bool `json:"demoted,omitempty"`
}

// Snapshot is a point-in-time view of the mesh, exported via wdobs.
type Snapshot struct {
	// Self is this node's mesh identity.
	Self string `json:"self"`
	// Quorum is the corroboration threshold for cluster verdicts.
	Quorum int `json:"quorum"`
	// Fanout is how many peers are sampled per gossip round.
	Fanout int `json:"fanout"`
	// IntervalNS and SuspectAfterNS echo the effective timing config.
	IntervalNS     int64 `json:"interval_ns"`
	SuspectAfterNS int64 `json:"suspect_after_ns"`
	// PeersAlive and PeersSuspect partition the peer set by observation
	// (alive = ObsOK; suspect = ObsUnreachable or ObsAlarming).
	PeersAlive   int `json:"peers_alive"`
	PeersSuspect int `json:"peers_suspect"`
	// PeersDemoted counts links currently demoted for flapping.
	PeersDemoted int `json:"peers_demoted"`
	// MessagesSent and MessagesReceived are process-lifetime totals.
	MessagesSent     int64 `json:"messages_sent"`
	MessagesReceived int64 `json:"messages_received"`
	// DeltaEntries totals the relayed digests piggybacked into frames;
	// FullSyncs counts anti-entropy full-table frames sent.
	DeltaEntries int64 `json:"delta_entries"`
	FullSyncs    int64 `json:"full_syncs"`
	// QueueDrops and SendFailures are totals across peers.
	QueueDrops   int64 `json:"queue_drops"`
	SendFailures int64 `json:"send_failures"`
	// VerdictsRaised and VerdictsCleared count cluster-verdict transitions.
	VerdictsRaised  int64 `json:"verdicts_raised"`
	VerdictsCleared int64 `json:"verdicts_cleared"`
	// Transport carries wire-level counters when the transport exposes them
	// (persistent-connection reconnects, protocol errors, oversized frames).
	Transport *TransportStats `json:"transport,omitempty"`
	// Peers describes each peer link, sorted by node.
	Peers []PeerSnapshot `json:"peers"`
	// Verdicts are the current cluster verdicts, sorted by subject.
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// Snapshot assembles the current mesh view. It is safe to call concurrently
// with gossip.
func (m *Mesh) Snapshot() *Snapshot {
	s := &Snapshot{
		Self:             m.cfg.Self,
		Quorum:           m.cfg.Quorum,
		Fanout:           m.cfg.Fanout,
		IntervalNS:       int64(m.cfg.Interval),
		SuspectAfterNS:   int64(m.cfg.SuspectAfter),
		MessagesSent:     m.sent.Load(),
		MessagesReceived: m.received.Load(),
		DeltaEntries:     m.deltaEntries.Load(),
		FullSyncs:        m.fullSyncs.Load(),
		VerdictsRaised:   m.verdictsRaised.Load(),
		VerdictsCleared:  m.verdictsCleared.Load(),
	}
	if src, ok := m.cfg.Transport.(StatsSource); ok {
		stats := src.Stats()
		s.Transport = &stats
	}

	m.mu.Lock()
	// Read the clock under the lock: a digest absorbed between an earlier
	// reading and the lock would be heard "in the future", a negative age.
	now := m.clk.Now()
	cutoff := now.Add(-m.cfg.SuspectAfter)
	for i, p := range m.peers {
		ps := PeerSnapshot{
			Node:           p.name,
			Observation:    m.observationLocked(i, cutoff),
			LastHeardNS:    -1,
			QueueDrops:     p.drops.Load(),
			SendFailures:   p.failures.Load(),
			Sent:           p.sent.Load(),
			ConsecFailures: p.consecFail.Load(),
			Demoted:        p.demoted.Load(),
		}
		if m.begun {
			ps.LastHeardNS = int64(now.Sub(m.heard[i]))
		}
		if m.present[i] {
			ps.Seq = m.digests[i].Seq
			ps.Worst = m.digests[i].Worst
		}
		if ps.Observation == ObsOK {
			s.PeersAlive++
		} else {
			s.PeersSuspect++
		}
		if ps.Demoted {
			s.PeersDemoted++
		}
		s.QueueDrops += ps.QueueDrops
		s.SendFailures += ps.SendFailures
		s.Peers = append(s.Peers, ps)
	}
	for _, v := range m.verdicts {
		s.Verdicts = append(s.Verdicts, v)
	}
	m.mu.Unlock()

	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Node < s.Peers[j].Node })
	sort.Slice(s.Verdicts, func(i, j int) bool { return s.Verdicts[i].Node < s.Verdicts[j].Node })
	return s
}
