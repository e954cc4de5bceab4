package main

import (
	"reflect"
	"sort"
	"testing"

	"gowatchdog/internal/faultinject"
)

func TestScheduleIsStratified(t *testing.T) {
	sched := buildSchedule(1, 40, 10)
	if len(sched) != 50 {
		t.Fatalf("schedule has %d injections, want 50", len(sched))
	}
	errPhases := map[string][]float64{}
	var hangPhases []float64
	for _, in := range sched {
		if faultSite[in.point].owner != in.owner || faultSite[in.point].op != in.op {
			t.Errorf("injection at %s carries owner %s / op %s", in.point, in.owner, in.op)
		}
		if in.kind == faultinject.Hang {
			hangPhases = append(hangPhases, in.phase)
		} else {
			errPhases[in.point] = append(errPhases[in.point], in.phase)
		}
	}
	tenths := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if len(errPhases) != 4 {
		t.Errorf("error injections cover %d fault points, want 4", len(errPhases))
	}
	for point, phases := range errPhases {
		sort.Float64s(phases)
		if !reflect.DeepEqual(phases, tenths) {
			t.Errorf("error injections at %s land at phases %v, want each tenth once", point, phases)
		}
	}
	sort.Float64s(hangPhases)
	if !reflect.DeepEqual(hangPhases, tenths) {
		t.Errorf("hang injections land at phases %v, want each tenth once", hangPhases)
	}

	// The seed reorders the schedule and changes nothing else.
	key := func(s []injection) []injection {
		out := append([]injection(nil), s...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.point != b.point {
				return a.point < b.point
			}
			if a.kind != b.kind {
				return a.kind < b.kind
			}
			return a.phase < b.phase
		})
		return out
	}
	other := buildSchedule(2, 40, 10)
	if reflect.DeepEqual(sched, other) {
		t.Error("two seeds gave the same order")
	}
	if !reflect.DeepEqual(key(sched), key(other)) {
		t.Error("two seeds gave different injections, not just a different order")
	}
	if !reflect.DeepEqual(sched, buildSchedule(1, 40, 10)) {
		t.Error("the same seed gave a different schedule")
	}
}
