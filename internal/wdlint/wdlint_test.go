package wdlint

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// lint runs one analyzer over a fixture package under testdata/src.
func lint(t *testing.T, a Analyzer, fixture string) []Diag {
	t.Helper()
	diags, err := Run(".", []string{filepath.Join("testdata", "src", fixture)}, []Analyzer{a})
	if err != nil {
		t.Fatalf("Run(%s): %v", fixture, err)
	}
	return diags
}

// wantDiag asserts exactly one finding contains every substring, returning it.
func wantDiag(t *testing.T, diags []Diag, subs ...string) Diag {
	t.Helper()
	var hits []Diag
outer:
	for _, d := range diags {
		for _, sub := range subs {
			if !strings.Contains(d.Message, sub) {
				continue outer
			}
		}
		hits = append(hits, d)
	}
	if len(hits) != 1 {
		t.Fatalf("want exactly one finding containing %q, got %d:\n%s", subs, len(hits), render(diags))
	}
	return hits[0]
}

func render(diags []Diag) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestIsolationFixture(t *testing.T) {
	diags := lint(t, &IsolationAnalyzer{}, "isolationbad")
	recv := 0
	for _, d := range diags {
		if strings.Contains(d.Message, `receiver "n"`) {
			recv++
		}
	}
	// n.state++ and n.seen[...] are two distinct receiver writes.
	if recv != 2 {
		t.Errorf("want 2 receiver findings, got %d:\n%s", recv, render(diags))
	}
	wantDiag(t, diags, "package-level variable \"globalCount\"; checkers")
	wantDiag(t, diags, "captured variable \"cache\"")
	wantDiag(t, diags, "channel \"alerts\"")
	wantDiag(t, diags, "Put on its own context")
	wantDiag(t, diags, "package-level variable \"shared\"")
	wantDiag(t, diags, "function bumpGlobal, called from checker")
	for _, d := range diags {
		if d.Severity != SevError {
			t.Errorf("isolation finding below error: %s", d)
		}
		// The plain closure accumulator must not be flagged.
		if strings.Contains(d.Message, `"last"`) || strings.Contains(d.Message, `"local"`) {
			t.Errorf("accumulator falsely flagged: %s", d)
		}
	}
	// Receiver path write (n.seen[...]) is reported separately from n.state.
	if n := len(diags); n != 8 {
		t.Errorf("want 8 isolation findings, got %d:\n%s", n, render(diags))
	}
}

func TestContextSyncFixture(t *testing.T) {
	diags := lint(t, &ContextSyncAnalyzer{}, "contextsyncbad")
	d := wantDiag(t, diags, `"csb.reader" reads context key "missing"`, "ever puts")
	if d.Severity != SevError {
		t.Errorf("read-never-put severity = %s", d.Severity)
	}
	d = wantDiag(t, diags, `"csb.orphan" reads context key "k"`, "no hook synchronizes")
	if d.Severity != SevError {
		t.Errorf("no-hook severity = %s", d.Severity)
	}
	d = wantDiag(t, diags, `key "wrong" is synchronized`, "never read")
	if d.Severity != SevInfo {
		t.Errorf("synced-never-read severity = %s", d.Severity)
	}
	d = wantDiag(t, diags, `"csb.ghost"`, "no checker")
	if d.Severity != SevWarn {
		t.Errorf("ghost-context severity = %s", d.Severity)
	}
	if n := len(diags); n != 4 {
		t.Errorf("want 4 contextsync findings, got %d:\n%s", n, render(diags))
	}
}

func TestFateShareFixture(t *testing.T) {
	diags := lint(t, &FateShareAnalyzer{}, "fatesharebad")
	wantDiag(t, diags, `"fs.raw"`, "os.WriteFile outside watchdog.Op")
	wantDiag(t, diags, `"fs.raw"`, "net.Dial outside watchdog.Op")
	for _, d := range diags {
		if strings.Contains(d.Message, "fs.wrapped") {
			t.Errorf("wrapped operation falsely flagged: %s", d)
		}
	}
	if n := len(diags); n != 2 {
		t.Errorf("want 2 fateshare findings, got %d:\n%s", n, render(diags))
	}
}

func TestDriverCfgFixture(t *testing.T) {
	diags := lint(t, &DriverCfgAnalyzer{}, "drivercfgbad")
	wantDiag(t, diags, "watchdog.Timeout(0)")
	wantDiag(t, diags, "watchdog.Every(0)")
	wantDiag(t, diags, "Threshold(0)")
	wantDiag(t, diags, "ValidateWith(nil)")
	wantDiag(t, diags, `"cfg.a" is already registered`)
	d := wantDiag(t, diags, "no report sink is wired")
	if d.Severity != SevWarn {
		t.Errorf("sinkless-driver severity = %s, want warn", d.Severity)
	}
	if n := len(diags); n != 6 {
		t.Errorf("want 6 drivercfg findings, got %d:\n%s", n, render(diags))
	}
}

func TestRuntimeCfgFixture(t *testing.T) {
	diags := lint(t, &RuntimeCfgAnalyzer{}, "runtimecfgbad")
	d := wantDiag(t, diags, "watchdog.New", "wdruntime.New")
	if d.Severity != SevWarn {
		t.Errorf("runtimecfg severity = %s, want warn", d.Severity)
	}
	// The second construction carries //wdlint:ignore runtimecfg; only the
	// bare one may surface.
	if n := len(diags); n != 1 {
		t.Errorf("want 1 runtimecfg finding, got %d:\n%s", n, render(diags))
	}
}

// TestRuntimeCfgMeshFixture: a deployment package building the cluster
// health plane with wdmesh.New bypasses the shared lifecycle; joining must go
// through wdruntime. The second construction carries an ignore directive.
func TestRuntimeCfgMeshFixture(t *testing.T) {
	diags := lint(t, &RuntimeCfgAnalyzer{}, "meshcfgbad")
	d := wantDiag(t, diags, "wdmesh.New", "wdruntime", "-wd-peers")
	if d.Severity != SevWarn {
		t.Errorf("mesh runtimecfg severity = %s, want warn", d.Severity)
	}
	if n := len(diags); n != 1 {
		t.Errorf("want 1 mesh runtimecfg finding, got %d:\n%s", n, render(diags))
	}
}

// TestRuntimeCfgNotifyFixture: a deployment package feeding sd_notify by hand
// without a Stopping call anywhere leaves clean shutdowns indistinguishable
// from hangs. The second feeder carries an ignore directive.
func TestRuntimeCfgNotifyFixture(t *testing.T) {
	diags := lint(t, &RuntimeCfgAnalyzer{}, "notifycfgbad")
	d := wantDiag(t, diags, "Notifier.Feed", "Notifier.Stopping", "spurious restart")
	if d.Severity != SevWarn {
		t.Errorf("notify runtimecfg severity = %s, want warn", d.Severity)
	}
	if n := len(diags); n != 1 {
		t.Errorf("want 1 notify runtimecfg finding, got %d:\n%s", n, render(diags))
	}
}

// TestRuntimeCfgNotifyDisarmed: a hand feeder whose package also calls
// Stopping honors the contract and produces no findings.
func TestRuntimeCfgNotifyDisarmed(t *testing.T) {
	diags := lint(t, &RuntimeCfgAnalyzer{}, "notifycfggood")
	if len(diags) != 0 {
		t.Errorf("runtimecfg flagged a feeder with a disarm path:\n%s", render(diags))
	}
}

// TestRuntimeCfgScope: library packages may build bare drivers — only
// commands and the campaign layer are deployment scope.
func TestRuntimeCfgScope(t *testing.T) {
	diags := lint(t, &RuntimeCfgAnalyzer{}, "drivercfgbad")
	if len(diags) != 0 {
		t.Errorf("runtimecfg flagged a non-deployment package:\n%s", render(diags))
	}
}

func TestGenFreshFixture(t *testing.T) {
	diags := lint(t, &GenFreshAnalyzer{}, "genfreshbad")
	d := wantDiag(t, diags, "stale_wd_gen.go drifted", "regenerate")
	if d.Severity != SevError {
		t.Errorf("drift severity = %s", d.Severity)
	}
	d = wantDiag(t, diags, "noheader_wd_gen.go has no")
	if d.Severity != SevWarn {
		t.Errorf("no-header severity = %s", d.Severity)
	}
}

// TestGenFreshMovedFixture: the source directory still exists but holds only
// test files — a distinct finding from plain nonexistence, because the fix is
// pointing awgen at the package's new home, not resurrecting a directory.
func TestGenFreshMovedFixture(t *testing.T) {
	diags := lint(t, &GenFreshAnalyzer{}, "genfreshmoved")
	d := wantDiag(t, diags, "moved_wd_gen.go claims source", "no longer holds a compilable package")
	if d.Severity != SevWarn {
		t.Errorf("moved-source severity = %s, want warn", d.Severity)
	}
	if n := len(diags); n != 1 {
		t.Errorf("want 1 genfresh finding, got %d:\n%s", n, render(diags))
	}
}

// TestMarshalDiagsLocation: the JSON report carries a flat file:line:col
// location per finding, and stays an array when empty.
func TestMarshalDiagsLocation(t *testing.T) {
	diags := lint(t, &GenFreshAnalyzer{}, "genfreshmoved")
	data, err := MarshalDiags(diags)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("want 1 finding, got %d", len(decoded))
	}
	loc, _ := decoded[0]["location"].(string)
	if !strings.Contains(loc, "moved_wd_gen.go:4:1") {
		t.Errorf("location = %q, want file:line:col of the generated file", loc)
	}
	if decoded[0]["analyzer"] != "genfresh" {
		t.Errorf("analyzer = %v", decoded[0]["analyzer"])
	}
	empty, err := MarshalDiags(nil)
	if err != nil || string(empty) != "[]" {
		t.Errorf("MarshalDiags(nil) = %s, %v; want []", empty, err)
	}
}

// TestIgnoreDirective proves //wdlint:ignore suppresses a finding that the
// same analyzer reports without it (the dfs v1 checker carries one).
func TestIgnoreDirective(t *testing.T) {
	diags, err := Run(".", []string{"../dfs"}, []Analyzer{&FateShareAnalyzer{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "dfs.disk.v1") {
			t.Errorf("ignored finding leaked through: %s", d)
		}
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{SevInfo, SevWarn, SevError} {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) succeeded")
	}
}

func TestTestOnlyFixture(t *testing.T) {
	diags := lint(t, &TestOnlyAnalyzer{}, "testonlybad")
	wantDiag(t, diags, "testonlybad.Widget.Polish ")
	wantDiag(t, diags, "testonlybad.Describe ")
	wantDiag(t, diags, "testonlybad.Limit ")
	// NewWidget and Default have a production caller; Name and String
	// satisfy interfaces.
	if len(diags) != 3 {
		t.Fatalf("want 3 testonly findings, got %d:\n%s", len(diags), render(diags))
	}
	for _, d := range diags {
		if d.Severity != SevInfo {
			t.Errorf("testonly finding above info: %s", d)
		}
	}
}

// TestTestOnlyCountsBenchmarkUses: the benchmark module's non-test files are
// use sites, so kvs.SyncNone, which only the benchmark names, is not listed.
func TestTestOnlyCountsBenchmarkUses(t *testing.T) {
	diags, err := Run(".", []string{"../kvs"}, []Analyzer{&TestOnlyAnalyzer{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "kvs.SyncNone ") {
			t.Errorf("benchmark use missed: %s", d)
		}
	}
}
