package wdlint

import "testing"

// TestSelfLint keeps the repository's own watchdog deployments honest: the
// coordination service, the DFS DataNode, the KV store, the committed
// AutoWatchdog output, the campaign layer, and the runtime layer itself must
// produce no finding at warn or above (after justified //wdlint:ignore
// directives). Info findings are expected — contexts legitimately carry
// report payload keys no checker reads (§5.2).
func TestSelfLint(t *testing.T) {
	diags, err := Run(".", []string{
		"../coord",
		"../dfs",
		"../kvs",
		"../autowatchdog/genexample",
		"../campaign",
		"../campaign/meshscale",
		"../wdruntime",
		"../wdmesh",
		"../wdmesh/wire",
		"../sdnotify",
		"../supervise",
	}, All())
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, d := range diags {
		if d.Severity >= SevWarn {
			bad++
			t.Errorf("self-lint: %s", d)
		} else {
			t.Logf("info: %s", d)
		}
	}
	if bad > 0 {
		t.Fatalf("%d watchdog hygiene violation(s) in the tree", bad)
	}
}
