package kvs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

// TestStressConcurrentEverything exercises writers, readers, scanners, the
// flusher, the compaction manager, and the full watchdog suite all at once.
// Run with -race to validate the locking story end to end.
func TestStressConcurrentEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	dir := t.TempDir()
	factory := watchdog.NewFactory()
	store, err := Open(Config{
		Dir:                 dir,
		FlushThresholdBytes: 32 << 10, // small threshold: frequent real flushes
		CompactionMinTables: 3,
		WatchdogFactory:     factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	shadow, err := wdio.NewFS(ShadowDirFor(dir), 0)
	if err != nil {
		t.Fatal(err)
	}
	driver := watchdog.New(
		watchdog.WithFactory(factory),
		watchdog.WithInterval(5*time.Millisecond),
		watchdog.WithTimeout(2*time.Second),
	)
	store.InstallWatchdog(driver, shadow)
	var abnormal atomic.Int64
	driver.OnReport(func(rep watchdog.Report) {
		if rep.Status.Abnormal() {
			abnormal.Add(1)
			t.Logf("abnormal: %s", rep)
		}
	})
	driver.Start()
	defer driver.Stop()

	const (
		writers  = 4
		readers  = 4
		perActor = 300
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perActor; i++ {
				key := []byte(fmt.Sprintf("stress/w%d/%04d", w, i))
				if err := store.Set(key, []byte(fmt.Sprintf("value-%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
				if i%10 == 9 {
					if err := store.Del([]byte(fmt.Sprintf("stress/w%d/%04d", w, i-5))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perActor; i++ {
				key := []byte(fmt.Sprintf("stress/w%d/%04d", r%writers, i%perActor))
				if _, _, err := store.Get(key); err != nil {
					errCh <- err
					return
				}
				if i%50 == 0 {
					if _, err := store.Scan([]byte("stress/"), []byte("stress/~"), 20); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(r)
	}
	// Background maintenance racing the workload.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			store.FlushAll(false)
			store.CompactAll()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Force final flush + compaction, then verify integrity and a sample of
	// the surviving data.
	store.FlushAll(true)
	store.CompactAll()
	for i := 0; i < store.Partitions(); i++ {
		if err := store.VerifyPartition(i); err != nil {
			t.Fatalf("partition %d corrupt after stress: %v", i, err)
		}
	}
	for w := 0; w < writers; w++ {
		key := []byte(fmt.Sprintf("stress/w%d/%04d", w, perActor-1))
		v, ok, err := store.Get(key)
		if err != nil || !ok {
			t.Fatalf("lost %s: ok=%v err=%v", key, ok, err)
		}
		want := fmt.Sprintf("value-%d-%d", w, perActor-1)
		if string(v) != want {
			t.Fatalf("%s = %q, want %q", key, v, want)
		}
	}
	if n := abnormal.Load(); n != 0 {
		t.Fatalf("watchdog raised %d abnormal reports on a healthy stressed store", n)
	}
	for _, st := range driver.State() {
		if st.Name == "kvs.flusher" && st.Runs == 0 {
			t.Fatal("scheduled watchdog never ran during stress")
		}
	}
}
