package dfs

import (
	"fmt"
	"gowatchdog/internal/gauge"
	"os"
	"path/filepath"
)

// Metrics returns the node's metric registry.
func (dn *DataNode) Metrics() *gauge.Registry { return dn.mets }

// DeleteBlock removes a block.
func (dn *DataNode) DeleteBlock(id uint64) error {
	dn.mu.Lock()
	volIdx, ok := dn.blocks[id]
	if ok {
		delete(dn.blocks, id)
	}
	dn.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoBlock, id)
	}
	return os.Remove(filepath.Join(dn.vols[volIdx].dir, blockFileName(id)))
}

// BlockCount returns the number of live blocks.
func (dn *DataNode) BlockCount() int {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	return len(dn.blocks)
}

// VolumeDir returns volume i's directory.
func (dn *DataNode) VolumeDir(i int) string { return dn.vols[i].dir }

// BlockPath returns the on-disk path of a block, for fault-injection tests.
func (dn *DataNode) BlockPath(id uint64) (string, bool) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	volIdx, ok := dn.blocks[id]
	if !ok {
		return "", false
	}
	return filepath.Join(dn.vols[volIdx].dir, blockFileName(id)), true
}
