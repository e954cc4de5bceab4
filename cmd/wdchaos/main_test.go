package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// envRunMain makes the test binary behave as wdchaos itself, so a test can
// run the real command, exit status and all, in a child process.
const envRunMain = "WDCHAOS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestScratchDirRemoved: a kvs campaign without -dir runs in a scratch store
// that wdchaos creates, and must leave none behind whether its verdict passes
// or fails (a failing verdict exits 1, which must not skip the cleanup).
func TestScratchDirRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, tc := range []struct {
		name     string
		minRate  string
		wantExit int
	}{
		{"pass", "0", 0},
		{"fail", "1.1", 1}, // no campaign detects more than every fault
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-substrate", "kvs", "-seed", "2",
				"-interval", "10ms", "-warmup", "2", "-storm", "4", "-cooldown", "2", "-grace", "1",
				"-min-detection-rate", tc.minRate)
			cmd.Env = append(os.Environ(), envRunMain+"=1")
			out, err := cmd.CombinedOutput()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.wantExit {
				t.Fatalf("exit status %d, want %d\n%s", exit, tc.wantExit, out)
			}
			left, err := filepath.Glob(filepath.Join(tmp, "wdchaos-*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

// TestCheckersRejectedOffAblationSubstrates: -checkers selects ablation
// targets that exist only for kvs and dfs. Every other substrate must refuse
// it rather than run its own campaign and report a verdict for an arm that
// never ran. Only substrates that finish instantly are run here, so a build
// that ignores the flag fails fast.
func TestCheckersRejectedOffAblationSubstrates(t *testing.T) {
	for _, substrate := range []string{"synth", "cep"} {
		t.Run(substrate, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-substrate", substrate, "-seed", "42", "-checkers", "probe")
			cmd.Env = append(os.Environ(), envRunMain+"=1")
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want status 1\n%s", err, out)
			}
			if want := "-checkers applies to the kvs and dfs substrates only"; !strings.Contains(string(out), want) {
				t.Fatalf("output lacks %q:\n%s", want, out)
			}
		})
	}
}
