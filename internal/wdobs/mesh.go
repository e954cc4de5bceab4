package wdobs

import (
	"fmt"
	"io"

	"gowatchdog/internal/wdmesh"
)

// KindMesh marks a journaled cluster-verdict transition from the mesh health
// plane: a quorum-corroborated verdict about a peer was raised or cleared.
const KindMesh = "mesh"

// SetMesh wires a mesh snapshot source (wdmesh.Mesh.Snapshot) into the
// observability surface: /watchdog gains a "mesh" section and /metrics gains
// the wdmesh_* series. Pass nil to detach.
func (o *Obs) SetMesh(fn func() *wdmesh.Snapshot) {
	o.mu.Lock()
	o.meshFn = fn
	o.mu.Unlock()
}

// meshSnapshot returns the mesh view, or nil when no mesh is wired.
func (o *Obs) meshSnapshot() *wdmesh.Snapshot {
	o.mu.RLock()
	fn := o.meshFn
	o.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// writeMeshMetrics emits the wdmesh_* Prometheus series for one mesh view.
func writeMeshMetrics(w io.Writer, m *wdmesh.Snapshot) {
	fmt.Fprintf(w, "# HELP wdmesh_peers_alive Peers currently observed ok.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_peers_alive gauge\n")
	fmt.Fprintf(w, "wdmesh_peers_alive %d\n", m.PeersAlive)
	fmt.Fprintf(w, "# HELP wdmesh_peers_suspect Peers currently observed unreachable or alarming.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_peers_suspect gauge\n")
	fmt.Fprintf(w, "wdmesh_peers_suspect %d\n", m.PeersSuspect)
	fmt.Fprintf(w, "# HELP wdmesh_messages_sent_total Gossip messages handed to the transport.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_messages_sent_total counter\n")
	fmt.Fprintf(w, "wdmesh_messages_sent_total %d\n", m.MessagesSent)
	fmt.Fprintf(w, "# HELP wdmesh_messages_received_total Gossip messages received.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_messages_received_total counter\n")
	fmt.Fprintf(w, "wdmesh_messages_received_total %d\n", m.MessagesReceived)
	fmt.Fprintf(w, "# HELP wdmesh_queue_drops_total Gossip frames dropped unsent: the round's send budget ran out.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_queue_drops_total counter\n")
	fmt.Fprintf(w, "wdmesh_queue_drops_total %d\n", m.QueueDrops)
	fmt.Fprintf(w, "# HELP wdmesh_delta_entries_total Relayed digests piggybacked into gossip frames.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_delta_entries_total counter\n")
	fmt.Fprintf(w, "wdmesh_delta_entries_total %d\n", m.DeltaEntries)
	fmt.Fprintf(w, "# HELP wdmesh_full_syncs_total Anti-entropy full-table frames sent.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_full_syncs_total counter\n")
	fmt.Fprintf(w, "wdmesh_full_syncs_total %d\n", m.FullSyncs)
	fmt.Fprintf(w, "# HELP wdmesh_peers_demoted Links currently demoted for flapping.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_peers_demoted gauge\n")
	fmt.Fprintf(w, "wdmesh_peers_demoted %d\n", m.PeersDemoted)
	fmt.Fprintf(w, "# HELP wdmesh_send_failures_total Gossip frames whose send failed.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_send_failures_total counter\n")
	fmt.Fprintf(w, "wdmesh_send_failures_total %d\n", m.SendFailures)
	fmt.Fprintf(w, "# HELP wdmesh_verdicts_raised_total Cluster verdicts raised.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_verdicts_raised_total counter\n")
	fmt.Fprintf(w, "wdmesh_verdicts_raised_total %d\n", m.VerdictsRaised)
	fmt.Fprintf(w, "# HELP wdmesh_verdicts_cleared_total Cluster verdicts cleared.\n")
	fmt.Fprintf(w, "# TYPE wdmesh_verdicts_cleared_total counter\n")
	fmt.Fprintf(w, "wdmesh_verdicts_cleared_total %d\n", m.VerdictsCleared)
	if m.Transport != nil {
		fmt.Fprintf(w, "# HELP wdmesh_transport_reconnects_total Outbound connections re-established after a drop.\n")
		fmt.Fprintf(w, "# TYPE wdmesh_transport_reconnects_total counter\n")
		fmt.Fprintf(w, "wdmesh_transport_reconnects_total %d\n", m.Transport.Reconnects)
		fmt.Fprintf(w, "# HELP wdmesh_transport_protocol_errors_total Malformed frames survived in place.\n")
		fmt.Fprintf(w, "# TYPE wdmesh_transport_protocol_errors_total counter\n")
		fmt.Fprintf(w, "wdmesh_transport_protocol_errors_total %d\n", m.Transport.ProtocolErrors)
		fmt.Fprintf(w, "# HELP wdmesh_transport_oversized_frames_total Inbound frames rejected by the size cap.\n")
		fmt.Fprintf(w, "# TYPE wdmesh_transport_oversized_frames_total counter\n")
		fmt.Fprintf(w, "wdmesh_transport_oversized_frames_total %d\n", m.Transport.OversizedFrames)
	}
	fmt.Fprintf(w, "# HELP wdmesh_peer_observation Per-peer observation (0 ok, 1 unreachable, 2 wd-alarm).\n")
	fmt.Fprintf(w, "# TYPE wdmesh_peer_observation gauge\n")
	for _, p := range m.Peers {
		code := 0
		switch p.Observation {
		case wdmesh.ObsUnreachable:
			code = 1
		case wdmesh.ObsAlarming:
			code = 2
		}
		fmt.Fprintf(w, "wdmesh_peer_observation{peer=%q} %d\n", escapeLabel(p.Node), code)
	}
	// Per-peer drop counters show which links lost frames to a spent send
	// budget; only peers that have dropped at least once get a series, so
	// cardinality stays bounded by misbehaving links rather than cluster
	// size.
	var dropped bool
	for _, p := range m.Peers {
		if p.QueueDrops == 0 {
			continue
		}
		if !dropped {
			fmt.Fprintf(w, "# HELP wdmesh_peer_dropped_total Gossip frames to this peer dropped unsent: the round's send budget ran out.\n")
			fmt.Fprintf(w, "# TYPE wdmesh_peer_dropped_total counter\n")
			dropped = true
		}
		fmt.Fprintf(w, "wdmesh_peer_dropped_total{peer=%q} %d\n", escapeLabel(p.Node), p.QueueDrops)
	}
	if len(m.Verdicts) > 0 {
		fmt.Fprintf(w, "# HELP wdmesh_cluster_verdict Active quorum-corroborated verdicts (value = corroborating votes).\n")
		fmt.Fprintf(w, "# TYPE wdmesh_cluster_verdict gauge\n")
		for _, v := range m.Verdicts {
			fmt.Fprintf(w, "wdmesh_cluster_verdict{node=%q,kind=%q} %d\n",
				escapeLabel(v.Node), escapeLabel(v.Kind), v.Votes)
		}
	}
}
