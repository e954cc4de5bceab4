// Package dfs implements a miniature HDFS-style DataNode: a block store
// spread across volumes, with block-level checksums and a periodic scanner.
//
// Its purpose in this repository is the paper's §3.3 disk-checker example
// (HADOOP-13738): the DataNode's original disk checker only examined
// directory permissions and missed real I/O faults; it was later enhanced
// into a mimic checker that creates files and performs real reads and
// writes the way the DataNode does. Both generations are implemented in
// watchdog.go so experiment E8 can compare them on a partially failed
// volume.
package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/gauge"
	"gowatchdog/internal/watchdog"
)

// Fault points. Volume-scoped points get the volume index appended
// ("dfs.volume.write.0"), so a *partial* disk failure — one bad volume among
// healthy ones — is expressible.
const (
	FaultVolumeWritePrefix = "dfs.volume.write."
	FaultVolumeReadPrefix  = "dfs.volume.read."
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors.
var (
	// ErrNoBlock is returned for reads of unknown blocks.
	ErrNoBlock = errors.New("dfs: no such block")
	// ErrBlockCorrupt is returned when a block fails its checksum.
	ErrBlockCorrupt = errors.New("dfs: block corrupt")
)

// volume is one disk directory holding block files.
type volume struct {
	dir string
	idx int
}

// blockFileName renders a block's on-disk name.
func blockFileName(id uint64) string { return fmt.Sprintf("blk_%016x", id) }

// DataNode stores checksummed blocks across volumes (round-robin placement).
type DataNode struct {
	vols    []*volume
	inj     *faultinject.Injector
	mets    *gauge.Registry
	factory *watchdog.Factory

	mu     sync.Mutex
	blocks map[uint64]int // block id -> volume index
	nextID uint64
}

// Config configures a DataNode.
type Config struct {
	// VolumeDirs are the volume root directories (at least one).
	VolumeDirs []string
	// Injector defaults to a disabled injector.
	Injector *faultinject.Injector
	// Metrics defaults to a private registry.
	Metrics *gauge.Registry
	// WatchdogFactory receives hook updates when set.
	WatchdogFactory *watchdog.Factory
}

// New creates the volume directories and returns a DataNode.
func New(cfg Config) (*DataNode, error) {
	if len(cfg.VolumeDirs) == 0 {
		return nil, errors.New("dfs: no volumes configured")
	}
	if cfg.Injector == nil {
		cfg.Injector = faultinject.New(clock.Real())
	}
	if cfg.Metrics == nil {
		cfg.Metrics = gauge.NewRegistry()
	}
	dn := &DataNode{
		inj:     cfg.Injector,
		mets:    cfg.Metrics,
		factory: cfg.WatchdogFactory,
		blocks:  make(map[uint64]int),
	}
	for i, dir := range cfg.VolumeDirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dfs: volume %d: %w", i, err)
		}
		dn.vols = append(dn.vols, &volume{dir: dir, idx: i})
	}
	return dn, nil
}

// Metrics returns the node's metric registry.
func (dn *DataNode) Metrics() *gauge.Registry { return dn.mets }

// Injector returns the node's fault injector.
func (dn *DataNode) Injector() *faultinject.Injector { return dn.inj }

// WriteBlock stores data as a new block and returns its ID. The block file
// is framed as 4-byte CRC32C + data and fsynced.
func (dn *DataNode) WriteBlock(data []byte) (uint64, error) {
	dn.mu.Lock()
	dn.nextID++
	id := dn.nextID
	vol := dn.vols[int(id)%len(dn.vols)]
	dn.mu.Unlock()

	// Watchdog hook: capture the write arguments before the vulnerable I/O.
	if dn.factory != nil {
		sample := data
		if len(sample) > 64 {
			sample = sample[:64]
		}
		dn.factory.Context("dfs.disk").PutAll(map[string]any{
			"volume": vol.idx,
			"block":  int64(id),
			"sample": sample,
		})
	}
	if err := dn.inj.Fire(fmt.Sprintf("%s%d", FaultVolumeWritePrefix, vol.idx)); err != nil {
		dn.mets.Counter("dfs.write.errors").Inc()
		return 0, err
	}
	framed := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(framed[:4], crc32.Checksum(data, castagnoli))
	copy(framed[4:], data)
	path := filepath.Join(vol.dir, blockFileName(id))
	if err := writeFileSync(path, framed); err != nil {
		dn.mets.Counter("dfs.write.errors").Inc()
		return 0, err
	}
	dn.mu.Lock()
	dn.blocks[id] = vol.idx
	dn.mu.Unlock()
	dn.mets.Counter("dfs.blocks.written").Inc()
	return id, nil
}

// ReadBlock returns a block's data after checksum validation.
func (dn *DataNode) ReadBlock(id uint64) ([]byte, error) {
	dn.mu.Lock()
	volIdx, ok := dn.blocks[id]
	dn.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoBlock, id)
	}
	if err := dn.inj.Fire(fmt.Sprintf("%s%d", FaultVolumeReadPrefix, volIdx)); err != nil {
		dn.mets.Counter("dfs.read.errors").Inc()
		return nil, err
	}
	framed, err := os.ReadFile(filepath.Join(dn.vols[volIdx].dir, blockFileName(id)))
	if err != nil {
		dn.mets.Counter("dfs.read.errors").Inc()
		return nil, err
	}
	if len(framed) < 4 {
		return nil, fmt.Errorf("%w: block %d truncated", ErrBlockCorrupt, id)
	}
	want := binary.LittleEndian.Uint32(framed[:4])
	data := framed[4:]
	if crc32.Checksum(data, castagnoli) != want {
		dn.mets.Counter("dfs.corrupt.blocks").Inc()
		return nil, fmt.Errorf("%w: block %d", ErrBlockCorrupt, id)
	}
	dn.mets.Counter("dfs.blocks.read").Inc()
	return data, nil
}

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

// ScanBlocks validates the checksum of every block (the DataNode's periodic
// block scanner). It returns the IDs of corrupt blocks.
func (dn *DataNode) ScanBlocks() ([]uint64, error) {
	dn.mu.Lock()
	ids := make([]uint64, 0, len(dn.blocks))
	for id := range dn.blocks {
		ids = append(ids, id)
	}
	dn.mu.Unlock()
	var corrupt []uint64
	for _, id := range ids {
		if _, err := dn.ReadBlock(id); err != nil {
			if errors.Is(err, ErrBlockCorrupt) {
				corrupt = append(corrupt, id)
				continue
			}
			return corrupt, err
		}
	}
	return corrupt, nil
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

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
