package testonlybad

import "testing"

// The analyzer loads no _test.go file: these uses do not count.
func TestUses(t *testing.T) {
	w := NewWidget()
	w.Polish()
	if Describe(w) != "widget" || Limit != 3 || describeAll() == "" {
		t.Fatal("unexpected")
	}
}
