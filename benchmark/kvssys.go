package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/kvs"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdruntime"
)

// kvsBoot describes the system one kvs workload runs against. Zero fields
// take the store's production defaults.
type kvsBoot struct {
	sync               kvs.SyncPolicy
	flushThreshold     int64
	flushInterval      time.Duration
	compactionInterval time.Duration
	wdInterval         time.Duration
	wdTimeout          time.Duration
	// onReport and onAlarm, when set, see every checker report and alarm.
	onReport func(watchdog.Report)
	onAlarm  func(watchdog.Alarm)
}

// kvsSystem is the program under test, booted in-process through the same
// public calls cmd/kvsd makes: store, wire server, and the watchdog runtime
// with the store's generated checker suite on a shadow filesystem.
type kvsSystem struct {
	dir     string
	store   *kvs.Store
	srv     *kvs.Server
	rt      *wdruntime.Runtime
	factory *watchdog.Factory

	bootAt      time.Time
	startMS     float64 // wdruntime.Start
	mu          sync.Mutex
	firstReport map[string]time.Duration // checker -> boot to first report
	alarms      atomic.Int64
}

// bootKVS opens a store in a fresh directory under outDir and starts
// everything. prepare, when non-nil, may fill the data directory first.
func bootKVS(outDir string, b kvsBoot, prepare func(dataDir string) error) (*kvsSystem, error) {
	dir, err := os.MkdirTemp(outDir, "kvs-")
	if err != nil {
		return nil, err
	}
	sys := &kvsSystem{dir: dir, factory: watchdog.NewFactory(), firstReport: map[string]time.Duration{}}
	fail := func(err error) (*kvsSystem, error) {
		sys.close()
		return nil, err
	}
	if prepare != nil {
		if err := prepare(sys.dataDir()); err != nil {
			return fail(err)
		}
	}
	sys.store, err = kvs.Open(kvs.Config{
		Dir:                 sys.dataDir(),
		Sync:                b.sync,
		FlushThresholdBytes: b.flushThreshold,
		FlushInterval:       b.flushInterval,
		CompactionInterval:  b.compactionInterval,
		WatchdogFactory:     sys.factory,
	})
	if err != nil {
		return fail(err)
	}
	sys.store.Start()
	if sys.srv, err = kvs.Serve("127.0.0.1:0", sys.store); err != nil {
		return fail(err)
	}
	shadow, err := wdio.NewFS(kvs.ShadowDirFor(sys.dataDir()), 0)
	if err != nil {
		return fail(err)
	}
	opts := []wdruntime.Option{
		wdruntime.WithFactory(sys.factory),
		wdruntime.WithRegistry(sys.store.Metrics()),
	}
	if b.wdInterval > 0 {
		opts = append(opts, wdruntime.WithInterval(b.wdInterval))
	}
	if b.wdTimeout > 0 {
		opts = append(opts, wdruntime.WithTimeout(b.wdTimeout))
	}
	if sys.rt, err = wdruntime.New(opts...); err != nil {
		return fail(err)
	}
	d := sys.rt.Driver()
	sys.store.InstallWatchdog(d, shadow)
	d.OnReport(func(rep watchdog.Report) {
		sys.mu.Lock()
		if _, seen := sys.firstReport[rep.Checker]; !seen {
			sys.firstReport[rep.Checker] = time.Since(sys.bootAt)
		}
		sys.mu.Unlock()
		if b.onReport != nil {
			b.onReport(rep)
		}
	})
	d.OnAlarm(func(a watchdog.Alarm) {
		sys.alarms.Add(1)
		if b.onAlarm != nil {
			b.onAlarm(a)
		}
	})
	sys.bootAt = time.Now()
	if err := sys.rt.Start(context.Background()); err != nil {
		return fail(err)
	}
	sys.startMS = ms(time.Since(sys.bootAt))
	return sys, nil
}

// firstReportP50 is the median boot-to-first-report delay over the checkers
// that have reported, in milliseconds.
func (s *kvsSystem) firstReportP50() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vs []float64
	for _, d := range s.firstReport {
		vs = append(vs, ms(d))
	}
	return median(vs)
}

// stop tears the system down in kvsd's order, leaving its directory in
// place. It returns how long the runtime's drain and close took, in
// milliseconds. Stopping twice is harmless.
func (s *kvsSystem) stop() (drainCloseMS float64) {
	if s.rt != nil {
		t0 := time.Now()
		_ = s.rt.Close()
		drainCloseMS = ms(time.Since(t0))
	}
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
	if s.store != nil {
		_ = s.store.Close()
		s.store = nil
	}
	return drainCloseMS
}

// close stops the system and removes its directory.
func (s *kvsSystem) close() {
	s.stop()
	_ = os.RemoveAll(s.dir)
}

func (s *kvsSystem) dataDir() string { return filepath.Join(s.dir, "data") }

// preload writes version 1 of every key straight into store (not over the
// wire: it is set-up, and set-up time is its own metric). flushEvery > 0
// also offers the flusher a chance every that many keys, so a large preload
// lands as a stack of tables instead of one oversized memtable.
func preload(store *kvs.Store, ks *keyspace, valueSize, flushEvery int) error {
	for i, k := range ks.keys {
		if err := store.Set([]byte(k), []byte(valueFor(i, 1, valueSize))); err != nil {
			return fmt.Errorf("preload %s: %w", k, err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			store.FlushAll(false)
		}
	}
	return nil
}

// preloadOffline fills dataDir before the system boots: a store without
// group commit takes the keys and its Close flushes them into one table per
// partition. A durable store is preloaded this way because the same keys
// through its own write path would cost one fsync each.
func preloadOffline(dataDir string, ks *keyspace, valueSize int) error {
	store, err := kvs.Open(kvs.Config{Dir: dataDir, Sync: kvs.SyncNone})
	if err != nil {
		return err
	}
	if err := preload(store, ks, valueSize, 0); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}

// tablesPerPartition is the mean sstable count over the store's partitions.
func (s *kvsSystem) tablesPerPartition() float64 {
	n := s.store.Partitions()
	total := 0
	for i := 0; i < n; i++ {
		total += s.store.TableCount(i)
	}
	return float64(total) / float64(n)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
