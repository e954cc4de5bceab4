package wdlint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExpandSkipsNestedModules checks "./..." stops at a directory with its
// own go.mod, as the go tool's pattern does: the repository's benchmark is
// such a module, measured code rather than a watchdog deployment.
func TestExpandSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, content := range map[string]string{
		"go.mod":            "module outer\n",
		"a/a.go":            "package a\n",
		"nested/go.mod":     "module outer/nested\n",
		"nested/n.go":       "package nested\n",
		"nested/deep/d.go":  "package deep\n",
		"a/testdata/t/t.go": "package t\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || filepath.Base(dirs[0]) != "a" {
		t.Fatalf("Expand = %v, want only %s", dirs, filepath.Join(root, "a"))
	}
}
