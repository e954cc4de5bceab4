// Package wdio provides the watchdog's I/O isolation mechanisms (§5.1).
//
// Mimic checkers perform real disk I/O so that environment faults (a dying
// disk, a full volume, a hung filesystem) manifest inside the checker just
// as they would in the main program. But their writes must never touch main
// data. FS redirects a checker's file operations into a shadow directory on
// the same volume — same device, same failure domain, different namespace —
// which is the paper's "redirection mechanism for common I/O side effects".
package wdio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrQuota is returned when a write would push the shadow directory past its
// byte quota.
var ErrQuota = errors.New("wdio: shadow quota exceeded")

// FS is a shadow filesystem rooted in a directory. All paths are interpreted
// relative to the root; escaping the root is an error. FS is safe for
// concurrent use.
//
// The quota counts the bytes WriteFile wrote. Files a checker writes itself
// at a PreparePath path are not counted, so removing one releases nothing.
type FS struct {
	root  string
	quota int64

	mu      sync.Mutex
	used    int64            // bytes WriteFile counted and not yet released
	written map[string]int64 // resolved path → bytes WriteFile counted for it
}

// NewFS creates (if needed) the shadow root directory and returns an FS with
// the given byte quota (0 means 64 MiB).
func NewFS(root string, quota int64) (*FS, error) {
	if quota <= 0 {
		quota = 64 << 20
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("wdio: create shadow root: %w", err)
	}
	return &FS{root: root, quota: quota, written: make(map[string]int64)}, nil
}

// Path resolves rel inside the shadow root. It returns an error if rel
// escapes the root.
func (f *FS) Path(rel string) (string, error) {
	clean := filepath.Clean("/" + rel) // forces the path to be root-relative
	full := filepath.Join(f.root, clean)
	if full != f.root && !strings.HasPrefix(full, f.root+string(filepath.Separator)) {
		return "", fmt.Errorf("wdio: path %q escapes shadow root", rel)
	}
	return full, nil
}

// PreparePath resolves rel like Path and additionally creates its parent
// directories, for checkers that hand the path to their own writers.
func (f *FS) PreparePath(rel string) (string, error) {
	full, err := f.Path(rel)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return "", err
	}
	return full, nil
}

// WriteFile writes data to rel inside the shadow, creating parent
// directories, enforcing the quota, and syncing to disk so the I/O truly
// exercises the storage stack.
func (f *FS) WriteFile(rel string, data []byte) error {
	full, err := f.Path(rel)
	if err != nil {
		return err
	}
	n := int64(len(data))
	f.mu.Lock()
	if f.used+n > f.quota {
		f.mu.Unlock()
		return ErrQuota
	}
	f.used += n
	f.mu.Unlock()
	wrote, err := writeSynced(full, data)
	f.mu.Lock()
	if wrote {
		f.used -= f.written[full] // an overwrite releases the bytes it replaced
		f.written[full] = n
	} else {
		f.used -= n
	}
	f.mu.Unlock()
	return err
}

// writeSynced creates full with data and syncs it. wrote reports whether
// data reached the file, even when the sync or close then failed.
func writeSynced(full string, data []byte) (wrote bool, err error) {
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return false, err
	}
	file, err := os.OpenFile(full, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := file.Write(data); err != nil {
		file.Close()
		return false, err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return true, err
	}
	return true, file.Close()
}

// ReadFile reads rel from the shadow.
func (f *FS) ReadFile(rel string) ([]byte, error) {
	full, err := f.Path(rel)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(full)
}

// Remove deletes rel from the shadow and releases the bytes WriteFile
// counted for it.
func (f *FS) Remove(rel string) error {
	full, err := f.Path(rel)
	if err != nil {
		return err
	}
	if err := os.Remove(full); err != nil {
		return err
	}
	f.mu.Lock()
	f.used -= f.written[full]
	delete(f.written, full)
	f.mu.Unlock()
	return nil
}

// RoundTrip writes data to rel, reads it back, verifies the contents match,
// and removes the file. This is the canonical mimic disk check (the
// HDFS-13738 pattern: "create some files ... do real I/O in a similar way").
func (f *FS) RoundTrip(rel string, data []byte) error {
	if err := f.WriteFile(rel, data); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	got, err := f.ReadFile(rel)
	if err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	if len(got) != len(data) {
		return fmt.Errorf("read back %d bytes, wrote %d", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			return fmt.Errorf("read-back mismatch at byte %d", i)
		}
	}
	if err := f.Remove(rel); err != nil {
		return fmt.Errorf("remove: %w", err)
	}
	return nil
}
