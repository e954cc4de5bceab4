package testmine

import "testing"

// TestByNameCounterAdd pins the boundary between the exact allow-list and
// the deny prefixes: bumping a counter by an amount is instrumentation,
// adding a thing to a collection is a write.
func TestByNameCounterAdd(t *testing.T) {
	w := newPurityWalker(nil, 1)
	for name, want := range map[string]bool{
		"Inc": true, "Add": true, "Load": true,
		"AddChecker": false, "Append": false, "Store": false, "Broadcast": false,
	} {
		if ok, why := w.byName(name); ok != want {
			t.Errorf("byName(%q) = %v (%s), want %v", name, ok, why, want)
		}
	}
}
