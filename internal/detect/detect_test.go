package detect

import (
	"testing"
	"time"

	"gowatchdog/internal/clock"
)

func TestHeartbeatNotSuspectBeforeFirstBeat(t *testing.T) {
	v := clock.NewVirtual()
	h := NewHeartbeat(v, time.Second)
	v.Advance(time.Hour)
	if h.Suspect() {
		t.Fatal("suspected before any beat")
	}
}

func TestHeartbeatSuspectAfterTimeout(t *testing.T) {
	v := clock.NewVirtual()
	h := NewHeartbeat(v, 3*time.Second)
	h.Beat()
	v.Advance(2 * time.Second)
	if h.Suspect() {
		t.Fatal("suspected within timeout")
	}
	v.Advance(2 * time.Second)
	if !h.Suspect() {
		t.Fatal("not suspected after timeout")
	}
	// A new beat clears suspicion.
	h.Beat()
	if h.Suspect() {
		t.Fatal("suspected right after beat")
	}
	if h.Beats() != 2 {
		t.Fatalf("Beats = %d", h.Beats())
	}
	if _, ok := h.LastBeat(); !ok {
		t.Fatal("LastBeat reports no beats")
	}
}

func TestHeartbeatMissesPartialFailure(t *testing.T) {
	// The defining limitation (Table 1): as long as the heartbeat thread
	// runs, the detector never suspects, no matter what the request pipeline
	// is doing.
	v := clock.NewVirtual()
	h := NewHeartbeat(v, 3*time.Second)
	for i := 0; i < 100; i++ {
		h.Beat() // heartbeat thread alive while (hypothetically) writes hang
		v.Advance(time.Second)
	}
	if h.Suspect() {
		t.Fatal("heartbeat detector suspected a process with a live heartbeat thread")
	}
}
