package wdio

import (
	"os"
	"path/filepath"
)

// Root returns the shadow root directory.
func (f *FS) Root() string { return f.root }

// Used returns the number of bytes WriteFile counted and Remove or Cleanup
// has not released.
func (f *FS) Used() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

// Cleanup removes everything under the shadow root and releases every
// counted byte. The root itself is kept so the FS remains usable.
func (f *FS) Cleanup() error {
	entries, err := os.ReadDir(f.root)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(f.root, e.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.mu.Lock()
	f.used = 0
	clear(f.written)
	f.mu.Unlock()
	return firstErr
}
