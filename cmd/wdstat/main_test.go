package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/supervise/episode"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdobs"
)

// TestRenderGolden pins the operator-facing table layout, including the
// BREAKER and FLAPS columns added with the self-hardening loop: breaker state
// with retry countdown and trip count, "-" for checkers without a breaker,
// and the per-checker damped-alarm tally.
func TestRenderGolden(t *testing.T) {
	snap := &wdobs.Snapshot{
		Time:       time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Healthy:    false,
		Reports:    120,
		Alarms:     4,
		JournalSeq: 124,
		Checkers: []wdobs.CheckerSnapshot{
			{
				Name:        "kvs.wal",
				Status:      watchdog.StatusError,
				Runs:        41,
				Abnormal:    12,
				Consecutive: 1,
				Transitions: 9,
				Flaps:       5,
				LastReport:  &watchdog.Report{Err: errors.New("wal append: injected error")},
				Latency:     wdobs.LatencySummary{P50NS: 0, P99NS: int64(300 * time.Microsecond)},
				Context:     wdobs.ContextSnapshot{StalenessNS: -1},
			},
			{
				Name:           "kvs.flusher",
				Status:         watchdog.StatusSkipped,
				Runs:           40,
				Abnormal:       6,
				Consecutive:    3,
				Transitions:    4,
				Stuck:          6,
				Breaker:        "open",
				BreakerTrips:   2,
				BreakerRetryNS: int64(2500 * time.Millisecond),
				Latency:        wdobs.LatencySummary{P50NS: int64(1200 * time.Microsecond), P99NS: int64(2 * time.Second)},
				LastReport:     &watchdog.Report{Err: errors.New("checker still blocked from previous execution")},
				Context:        wdobs.ContextSnapshot{StalenessNS: int64(500 * time.Millisecond)},
			},
			{
				Name:    "kvs.indexer",
				Status:  watchdog.StatusHealthy,
				Runs:    42,
				Breaker: "closed",
				Latency: wdobs.LatencySummary{P50NS: int64(800 * time.Microsecond), P99NS: int64(1500 * time.Microsecond)},
				Context: wdobs.ContextSnapshot{StalenessNS: int64(50 * time.Millisecond)},
			},
		},
		CEP: &wdcep.Snapshot{
			Rules:       2,
			Published:   118,
			Dropped:     0,
			Evaluations: 40,
			Fired:       3,
			RingCap:     8192,
			RuleStats: []wdcep.RuleStat{
				{Name: "wal-streak", Kind: wdcep.KindConsecutive, Fired: 3,
					LastFired: time.Date(2026, 8, 5, 11, 59, 30, 0, time.UTC)},
				{Name: "cluster-spread", Kind: wdcep.KindDistinct, Fired: 0},
			},
		},
		Recovery: &wdobs.RecoverySnapshot{Events: 37, Dropped: 5},
		Episodes: &episode.Snapshot{
			Total: 2,
			Open:  1,
			Episodes: []episode.Episode{
				{
					ID: 1, Daemon: "kvsd", Cause: "signal:killed",
					OpenedAt: time.Date(2026, 8, 5, 11, 58, 0, 0, time.UTC),
					Restarts: 1, Closed: true, Resolution: episode.ResolutionHealthy,
					OutageNS:  int64(1200 * time.Millisecond),
					HealthyNS: int64(5200 * time.Millisecond),
					Adopted:   true,
				},
				{
					ID: 2, Daemon: "kvsd", Cause: "watchdog-trigger",
					OpenedAt: time.Date(2026, 8, 5, 11, 59, 50, 0, time.UTC),
				},
			},
			TornRecords: 1,
		},
	}

	var b strings.Builder
	render(&b, "test:9120", snap)
	got := b.String()

	// Column widths are byte-based (the table code pads on len), which is why
	// the µ rows carry one byte of extra pad.
	golden := strings.Join([]string{
		"watchdog @ test:9120 — UNHEALTHY  (reports=120 alarms=4 journal=124)  12:00:00",
		"CHECKER      STATUS   RUNS  ABN  CONSEC  TRANS  STUCK  BREAKER        FLAPS  P50     P99     CTX AGE  LAST",
		"kvs.flusher  skipped  40    6    3       4      6      open(2.5s) x2  0      1.2ms   2.0s    500.0ms  checker still blocked from previous e...",
		"kvs.indexer  healthy  42    0    0       0      0      closed         0      800µs  1.5ms   50.0ms",
		"kvs.wal      error    41    12   1       9      0      -              5      0       300µs  never    wal append: injected error",
		"",
		"cep: 2 rules, 3 fired  (published=118 dropped=0 evaluations=40)",
		"RULE            KIND         FIRED  LAST",
		"wal-streak      consecutive  3      11:59:30",
		"cluster-spread  distinct     0      -",
		"",
		"recovery: events=37 dropped=5",
		"",
		"episodes: total=2 open=1 torn=1",
		"ID  DAEMON  CAUSE             OPENED    RESTARTS  RESOLUTION         OUTAGE  TO-HEALTHY",
		"1   kvsd    signal:killed     11:58:00  1         healthy (adopted)  1.2s    5.2s",
		"2   kvsd    watchdog-trigger  11:59:50  0         open               -       -",
		"",
	}, "\n")
	if got != golden {
		t.Errorf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestRenderMeshGolden pins the mesh section's degradation at cluster scale:
// a 1000-peer snapshot renders as a summary line, the active verdicts, the
// top-K abnormal peers ranked worst first, and one-line summaries for the
// abnormal overflow and the healthy remainder — never a thousand rows.
func TestRenderMeshGolden(t *testing.T) {
	mesh := &wdmesh.Snapshot{
		Self:             "n0000",
		Quorum:           2,
		Fanout:           3,
		PeersAlive:       986,
		PeersSuspect:     13,
		PeersDemoted:     3,
		MessagesSent:     48210,
		MessagesReceived: 47955,
		DeltaEntries:     291844,
		FullSyncs:        620,
		QueueDrops:       17,
		Transport:        &wdmesh.TransportStats{Reconnects: 4, ProtocolErrors: 1, OversizedFrames: 1},
		Verdicts: []wdmesh.Verdict{
			{Node: "n0404", Kind: wdmesh.VerdictUnreachable, Votes: 3, Worst: watchdog.StatusStuck,
				Since: time.Date(2026, 8, 5, 11, 59, 10, 0, time.UTC)},
		},
	}
	// 999 peers: twelve unreachable (two also demoted), one alarming, one
	// healthy-but-dropping, the rest clean.
	for i := 1; i < 1000; i++ {
		p := wdmesh.PeerSnapshot{
			Node:        fmt.Sprintf("n%04d", i),
			Observation: wdmesh.ObsOK,
			LastHeardNS: int64(200 * time.Millisecond),
			Seq:         900,
		}
		switch {
		case i >= 400 && i < 412:
			p.Observation = wdmesh.ObsUnreachable
			p.LastHeardNS = int64(30 * time.Second)
			p.SendFailures = int64(412 - i) // rank inside the tier
			if i < 402 {
				p.Demoted = true
				p.ConsecFailures = int64(9 - (i - 400))
			}
		case i == 700:
			p.Observation = wdmesh.ObsAlarming
			p.Worst = watchdog.StatusSlow
		case i == 800:
			p.QueueDrops = 17
		}
		mesh.Peers = append(mesh.Peers, p)
	}

	var b strings.Builder
	render(&b, "test:9120", &wdobs.Snapshot{
		Time: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC), Healthy: true, Mesh: mesh,
	})
	got := b.String()

	golden := strings.Join([]string{
		"watchdog @ test:9120 — HEALTHY  (reports=0 alarms=0 journal=0)  12:00:00",
		"CHECKER  STATUS  RUNS  ABN  CONSEC  TRANS  STUCK  BREAKER  FLAPS  P50  P99  CTX AGE  LAST",
		"",
		"mesh: self=n0000 quorum=2 fanout=3  peers=999 (alive=986 suspect=13 demoted=3)  sent=48210 recv=47955 deltas=291844 fullsync=620 drops=17",
		"mesh transport: reconnects=4 protocol-errors=1 oversized=1",
		"VERDICT  KIND         VOTES  WORST  SINCE",
		"n0404    unreachable  3      stuck  11:59:10",
		"PEER   OBS          WORST    SEQ  HEARD  DROPS  FAILS  LINK",
		"n0400  unreachable  healthy  900  30.0s  0      12     demoted x9",
		"n0401  unreachable  healthy  900  30.0s  0      11     demoted x8",
		"n0402  unreachable  healthy  900  30.0s  0      10     ok",
		"n0403  unreachable  healthy  900  30.0s  0      9      ok",
		"n0404  unreachable  healthy  900  30.0s  0      8      ok",
		"n0405  unreachable  healthy  900  30.0s  0      7      ok",
		"n0406  unreachable  healthy  900  30.0s  0      6      ok",
		"n0407  unreachable  healthy  900  30.0s  0      5      ok",
		"n0408  unreachable  healthy  900  30.0s  0      4      ok",
		"n0409  unreachable  healthy  900  30.0s  0      3      ok",
		"... and 4 more abnormal peer(s)",
		"... and 985 healthy peer(s)",
		"",
	}, "\n")
	if got != golden {
		t.Errorf("mesh render mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
