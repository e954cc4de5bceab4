package faultinject

import "sort"

// Fired reports how many times the fault at point has fired. It reports 0
// for unarmed points.
func (in *Injector) Fired(point string) int64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if a, ok := in.points[point]; ok {
		return a.fired.Load()
	}
	return 0
}

// Armed returns the sorted names of all armed points.
func (in *Injector) Armed() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.points))
	for p := range in.points {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}
