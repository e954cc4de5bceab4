package campaign

import (
	"strings"
	"testing"
	"time"

	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
)

// ablationCfg is a short scripted campaign shared by the ablation tests: one
// fault on a write-path point and one on a read-path point, both plain errors
// inside the storm window.
func ablationCfg(write, read string) Config {
	return Config{
		Interval:      10 * time.Millisecond,
		WarmupTicks:   3,
		StormTicks:    12,
		CooldownTicks: 6,
		GraceTicks:    3,
		// Each fault's detection is asserted below; the rate gate is not the
		// measurement.
		MinDetectionRate: 0.01,
		Script: []ScriptedFault{
			{Tick: 4, Point: write, Fault: faultinject.Fault{Kind: faultinject.Error}, DurationTicks: 4},
			{Tick: 9, Point: read, Fault: faultinject.Fault{Kind: faultinject.Error}, DurationTicks: 4},
		},
	}
}

// outcomeByPoint indexes a verdict's fault outcomes.
func outcomeByPoint(t *testing.T, v *Verdict) map[string]FaultOutcome {
	t.Helper()
	out := make(map[string]FaultOutcome, len(v.Faults))
	for _, f := range v.Faults {
		out[f.Point] = f
	}
	return out
}

// TestKVSAblationCoverage pins the E13 coverage on kvs: the reduced suite
// detects both the write-path and the read-path fault, each by the checker
// guarding its point, and raises no false positives.
func TestKVSAblationCoverage(t *testing.T) {
	cfg := ablationCfg(kvs.FaultWALAppend, kvs.FaultIndexerGet)

	for _, tc := range []struct {
		source     string
		wantWAL    bool
		walChecker string
		getChecker string
	}{
		{CheckersReduced, true, "kvs.wal", "kvs.indexer"},
	} {
		t.Run(tc.source, func(t *testing.T) {
			tgt, err := NewKVSAblationTarget(t.TempDir(), tc.source)
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Close()
			v, err := Run(tgt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			byPoint := outcomeByPoint(t, v)

			wal := byPoint[kvs.FaultWALAppend]
			if wal.Detected != tc.wantWAL || wal.Checker != tc.walChecker {
				t.Errorf("WAL fault: detected=%v by %q, want detected=%v by %q\n%s",
					wal.Detected, wal.Checker, tc.wantWAL, tc.walChecker, v.Render())
			}
			get := byPoint[kvs.FaultIndexerGet]
			if !get.Detected || get.Checker != tc.getChecker {
				t.Errorf("indexer-get fault: detected=%v by %q, want detected by %q\n%s",
					get.Detected, get.Checker, tc.getChecker, v.Render())
			}
			if v.FalsePositives != 0 {
				t.Errorf("false positives = %d: %v", v.FalsePositives, v.FalsePositiveDetails)
			}
		})
	}
}

// TestDFSAblationCoverage mirrors the kvs test on the DataNode: the reduced
// dfs.disk checker probes every volume's write and read points, so it catches
// both faults.
func TestDFSAblationCoverage(t *testing.T) {
	cfg := ablationCfg(dfs.FaultVolumeWritePrefix+"0", dfs.FaultVolumeReadPrefix+"1")

	for _, tc := range []struct {
		source      string
		wantWrite   bool
		readChecker string
	}{
		{CheckersReduced, true, "dfs.disk"},
	} {
		t.Run(tc.source, func(t *testing.T) {
			tgt, err := NewDFSAblationTarget(t.TempDir(), tc.source)
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Close()
			v, err := Run(tgt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			byPoint := outcomeByPoint(t, v)

			write := byPoint[dfs.FaultVolumeWritePrefix+"0"]
			if write.Detected != tc.wantWrite {
				t.Errorf("write fault: detected=%v, want %v\n%s", write.Detected, tc.wantWrite, v.Render())
			}
			read := byPoint[dfs.FaultVolumeReadPrefix+"1"]
			if !read.Detected || read.Checker != tc.readChecker {
				t.Errorf("read fault: detected=%v by %q, want detected by %q\n%s",
					read.Detected, read.Checker, tc.readChecker, v.Render())
			}
			if v.FalsePositives != 0 {
				t.Errorf("false positives = %d: %v", v.FalsePositives, v.FalsePositiveDetails)
			}
		})
	}
}

// TestAblationSourceValidation: a bad source selector — mined and both
// included — is an error naming the sources the substrate accepts, not a
// silently empty driver.
func TestAblationSourceValidation(t *testing.T) {
	if _, err := NewKVSAblationTarget(t.TempDir(), "all"); err == nil {
		t.Error("NewKVSAblationTarget(all) succeeded")
	}
	if _, err := NewAblationTarget("synth", t.TempDir(), CheckersReduced); err == nil {
		t.Error("NewAblationTarget(synth) succeeded")
	}
	for _, tc := range []struct {
		substrate, source, valid string
	}{
		{"kvs", "mined", "reduced|probe|signal|handler|heartbeat"},
		{"kvs", "both", "reduced|probe|signal|handler|heartbeat"},
		{"dfs", "mined", "(want reduced)"},
		{"dfs", "both", "(want reduced)"},
		// The detector arms are kvs-only.
		{"dfs", CheckersProbe, "(want reduced)"},
	} {
		_, err := NewAblationTarget(tc.substrate, t.TempDir(), tc.source)
		if err == nil || !strings.Contains(err.Error(), tc.valid) {
			t.Errorf("NewAblationTarget(%s, %s) = %v, want an error naming %s",
				tc.substrate, tc.source, err, tc.valid)
		}
	}
}
