package meshscale

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// small returns a campaign config sized for unit tests: big enough that the
// partition groups, quorum, and churn set are all non-trivial, small enough
// to finish in well under a second.
func small(seed int64) Config {
	return Config{Seed: seed, Nodes: 48, Fanout: 3, Interval: 50 * time.Millisecond}
}

// TestRunSmallPasses runs the full phase sequence on a small cluster and
// requires a clean verdict: converged, detected, cleared, no false
// positives, churn convicted, rejoin repaired, and message volume within the
// O(N·K) budget.
func TestRunSmallPasses(t *testing.T) {
	v, err := Run(small(7))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Pass {
		t.Fatalf("verdict failed: %s", strings.Join(v.Failures, "; "))
	}
	if v.FalsePositives != 0 {
		t.Fatalf("false positives = %d, want 0", v.FalsePositives)
	}
	if v.MsgPerRound > float64(v.BudgetMsgPerRound) {
		t.Fatalf("msg/round %.1f over budget %d", v.MsgPerRound, v.BudgetMsgPerRound)
	}
	if float64(v.BaselineMsgPerRound) <= v.MsgPerRound*2 {
		t.Fatalf("msg/round %.1f not meaningfully below the full-mesh baseline %d",
			v.MsgPerRound, v.BaselineMsgPerRound)
	}
	if v.DetectMaxNS <= 0 || v.Observers != v.Nodes-1 {
		t.Fatalf("latency bookkeeping broken: max=%d observers=%d", v.DetectMaxNS, v.Observers)
	}
	if r := v.Render(); !strings.Contains(r, "PASS") {
		t.Fatalf("render of a passing verdict lacks PASS:\n%s", r)
	}
}

// TestRunDeterministic: the same seed must reproduce the same verdict bit for
// bit — the property that makes `make meshscale-smoke` reproducible.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(small(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(42))
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed, different verdicts:\n%s\nvs\n%s", aj, bj)
	}
	c, err := Run(small(43))
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultNode == a.FaultNode && c.MessagesTotal == a.MessagesTotal {
		t.Fatal("different seeds produced an identical run — seeding is not wired through")
	}
}
