// Package testonlybad exports API that only its tests call next to API that
// production code calls: the testonly analyzer lists the former.
package testonlybad

import "fmt"

// Namer is satisfied by Widget; its methods have dynamic callers.
type Namer interface{ Name() string }

// Widget is constructed by production code.
type Widget struct{ n int }

// NewWidget has a production caller (describeAll).
func NewWidget() *Widget { return &Widget{} }

// Name satisfies Namer: not reported.
func (w *Widget) Name() string { return "widget" }

// String satisfies fmt.Stringer: not reported.
func (w *Widget) String() string { return fmt.Sprint(w.n) }

// Polish is called only by tests. // want: Widget.Polish
func (w *Widget) Polish() { w.n = 0 }

// Describe is called only by tests. // want: Describe
func Describe(n Namer) string { return n.Name() }

// Limit is read only by tests. // want: Limit
const Limit = 3

// Default has a production reader (describeAll).
var Default = 1

func describeAll() string {
	return NewWidget().Name() + fmt.Sprint(Default)
}
