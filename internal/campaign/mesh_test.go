package campaign

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRunMeshSeeded is the acceptance campaign: a seeded 3-node mesh detects a
// remote fail-slow fault cluster-wide through gossiped intrinsic verdicts while
// plain reachability stays quiet, clears on recovery, and raises zero false
// positives under a one-way partition.
func TestRunMeshSeeded(t *testing.T) {
	v, err := RunMesh(MeshConfig{Seed: 7, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	t.Logf("\n%s", v.Render())
	if !v.Pass {
		t.Fatalf("mesh campaign failed: %v", v.Failures)
	}
	if v.Nodes != 3 || v.Quorum != 2 {
		t.Fatalf("defaults = %d nodes quorum %d, want 3/2", v.Nodes, v.Quorum)
	}
	if !v.Detected || v.HeartbeatDetected {
		t.Fatalf("Detected=%v HeartbeatDetected=%v, want the mesh to see what heartbeats miss",
			v.Detected, v.HeartbeatDetected)
	}
	if len(v.Observers) != 2 {
		t.Fatalf("%d observers, want every non-victim peer (2)", len(v.Observers))
	}
	for _, ob := range v.Observers {
		if ob.Node == v.FaultNode {
			t.Fatalf("victim %s listed as its own observer", v.FaultNode)
		}
		if ob.DetectLatencyNS <= 0 {
			t.Fatalf("observer %s latency %d, want positive", ob.Node, ob.DetectLatencyNS)
		}
	}
	if v.DetectP50NS <= 0 || v.DetectMaxNS < v.DetectP50NS {
		t.Fatalf("latency summary p50=%d max=%d malformed", v.DetectP50NS, v.DetectMaxNS)
	}
	if !strings.Contains(v.PartitionLink, ">") || strings.Contains(v.PartitionLink, v.FaultNode) {
		t.Fatalf("partition link %q should join two healthy nodes", v.PartitionLink)
	}

	// The verdict is CI-consumable JSON.
	raw, err := v.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var round MeshVerdict
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if round.Seed != 7 || round.Substrate != "mesh" || !round.Pass {
		t.Fatalf("round-tripped verdict = %+v", round)
	}
}

// TestRunMeshSeedDeterminesTopology: the seed alone picks the victim and the
// partitioned link, so reruns of a CI seed reproduce the same scenario, and
// the link always joins two distinct healthy nodes.
func TestRunMeshSeedDeterminesTopology(t *testing.T) {
	names := []string{"node0", "node1", "node2", "node3", "node4"}
	for _, n := range []int{3, len(names)} {
		for seed := int64(0); seed < 100; seed++ {
			victim, from, to := meshScenario(seed, names[:n])
			v2, f2, t2 := meshScenario(seed, names[:n])
			if victim != v2 || from != f2 || to != t2 {
				t.Fatalf("%d nodes, seed %d chose %s/%s>%s then %s/%s>%s", n, seed, victim, from, to, v2, f2, t2)
			}
			if from == to {
				t.Fatalf("%d nodes, seed %d: partition link %s>%s is a self-loop", n, seed, from, to)
			}
			if victim == from || victim == to {
				t.Fatalf("%d nodes, seed %d: victim %s on the partition link %s>%s", n, seed, victim, from, to)
			}
		}
	}
}
