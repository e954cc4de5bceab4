package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// TestQuickSmoke runs every workload the way -quick -trace 1 does, half a
// second each on small inputs, so the harness cannot rot unnoticed. A traced
// run includes the timed pass, so one run covers both. It checks answers and
// the shape of both result lines, not figures.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runOne(w, runCtx{seed: 3, seconds: 0.5, quick: true, trace: true, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("attempted %d, failed %d: %v", res.attempted, res.failed, res.notes)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range res.layers {
				if !known[name] {
					t.Errorf("per-layer metric %s is not in the table, so no result line would carry it", name)
				}
			}
			for _, trace := range []bool{false, true} {
				line, err := res.driverJSON(trace)
				if err != nil {
					t.Fatal(err)
				}
				var got driverLine
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("trace=%v: result line carries %d metrics, want %d", trace, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			}
		})
	}
}

// TestManifestMatchesTables keeps the committed BENCHMARK.json equal to what
// -manifest prints, and inside the limits the driver refuses a file for.
func TestManifestMatchesTables(t *testing.T) {
	want := buildManifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with -manifest\n got %s\nwant %s", a, b)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), want.EndToEnd...), want.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range want.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d out of range", want.RunSeconds, len(data))
	}
}
