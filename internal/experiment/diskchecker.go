package experiment

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
)

// DiskCheckerResult is E8: the two generations of the HDFS-style disk
// checker (§3.3 / HADOOP-13738) against volume fault kinds.
type DiskCheckerResult struct {
	// Matrix maps fault kind -> checker generation -> outcome.
	Matrix map[string]map[string]Outcome
	// Kinds in reporting order.
	Kinds []string
}

// Render formats the matrix.
func (r *DiskCheckerResult) Render() string {
	t := Table{
		Title:  "§3.3 disk-checker generations (E8): dfs DataNode, partial volume fault",
		Header: []string{"volume fault", "v1 permissions-only", "v2 mimic real I/O"},
	}
	for _, k := range r.Kinds {
		t.AddRow(k, r.Matrix[k]["v1"].String(), r.Matrix[k]["v2"].String())
	}
	return t.Render()
}

// RunDiskChecker runs E8: for each fault kind on volume 0 of a two-volume
// DataNode, run both checker generations and record detection.
func RunDiskChecker(scratch string, timeout time.Duration) (*DiskCheckerResult, error) {
	if timeout <= 0 {
		timeout = 200 * time.Millisecond
	}
	kinds := []struct {
		name  string
		fault *faultinject.Fault
	}{
		{"none (healthy)", nil},
		{"write errors", &faultinject.Fault{Kind: faultinject.Error}},
		{"write hangs", &faultinject.Fault{Kind: faultinject.Hang}},
	}
	res := &DiskCheckerResult{Matrix: make(map[string]map[string]Outcome)}
	for i, k := range kinds {
		res.Kinds = append(res.Kinds, k.name)
		cell, err := runDiskCheckerOnce(filepath.Join(scratch, fmt.Sprintf("k%d", i)), k.fault, timeout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		res.Matrix[k.name] = cell
	}
	return res, nil
}

func runDiskCheckerOnce(dir string, fault *faultinject.Fault, timeout time.Duration) (map[string]Outcome, error) {
	factory := watchdog.NewFactory()
	dn, err := dfs.New(dfs.Config{
		VolumeDirs:      []string{filepath.Join(dir, "vol0"), filepath.Join(dir, "vol1")},
		WatchdogFactory: factory,
	})
	if err != nil {
		return nil, err
	}
	driver := watchdog.New(watchdog.WithFactory(factory), watchdog.WithTimeout(timeout))
	dn.InstallWatchdog(driver)

	// Real traffic populates the mimic checker's context (block 1 lands on
	// volume 1, which stays healthy).
	if _, err := dn.WriteBlock([]byte("real block payload")); err != nil {
		return nil, err
	}

	if fault != nil {
		dn.Injector().Arm(dfs.FaultVolumeWritePrefix+"0", *fault)
	}

	cell := map[string]Outcome{}
	var runs sync.WaitGroup
	for gen, checker := range map[string]string{"v1": "dfs.disk.v1", "v2": "dfs.disk"} {
		repCh := make(chan watchdog.Report, 1)
		runs.Add(1)
		go func() {
			defer runs.Done()
			rep, _ := driver.CheckNow(checker)
			repCh <- rep
		}()
		var rep watchdog.Report
		select {
		case rep = <-repCh:
		case <-time.After(timeout * 4):
			rep = watchdog.Report{Status: watchdog.StatusStuck}
		}
		switch {
		case rep.Status.Abnormal() && !rep.Site.IsZero():
			cell[gen] = DetectedPinpoint
		case rep.Status.Abnormal():
			cell[gen] = Detected
		default:
			cell[gen] = Missed
		}
	}
	// Release a hung checker and wait until every execution has returned: a
	// released one goes on to write its probes, which must not land in dir
	// after the run.
	dn.Injector().Clear()
	runs.Wait()
	for deadline := time.Now().Add(5 * time.Second); driver.LeakedHung() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d checker execution(s) still hung after release", driver.LeakedHung())
		}
	}
	return cell, nil
}
