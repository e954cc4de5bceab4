package coord

import "testing"

// TestLeaderZxidInvariant pins the zxid ordering law that holds at every
// moment of a leader's life, busy or idle: the committed zxid never runs
// ahead of the assigned one, and neither goes negative.
func TestLeaderZxidInvariant(t *testing.T) {
	l := standaloneLeader(t, nil)

	assigned, committed := l.Zxids()
	if committed > assigned || assigned < 0 {
		t.Fatalf("zxid ordering violated: assigned=%d committed=%d", assigned, committed)
	}
}
