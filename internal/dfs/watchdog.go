package dfs

import (
	"fmt"
	"os"

	"gowatchdog/internal/watchdog"
)

// This file implements both generations of the DataNode disk checker from
// the paper's §3.3 example (HADOOP-13738):
//
//   - v1 (PermissionsChecker) "initially only checked directory
//     permissions" — a shallow structural check that passes while a volume
//     black-holes or corrupts real I/O;
//   - v2 (MimicDiskChecker) was "enhanced to create some files and invoke
//     functions from the DataNode main program to do real I/O in a similar
//     way" — it writes, reads back, verifies, and deletes a real block
//     through the same volume fault points as production writes.
//
// Experiment E8 runs both against a partially failed volume and reports
// which generation detects what.

// PermissionsChecker is the v1 disk checker: for each volume it stats the
// directory and confirms it is a writable directory. No data moves.
func (dn *DataNode) PermissionsChecker() watchdog.Checker {
	return watchdog.NewChecker("dfs.disk.v1", func(ctx *watchdog.Context) error {
		for _, v := range dn.vols {
			// The raw os.Stat is the point of v1: it reproduces the paper's
			// inadequate checker, un-pinpointed hang and all, so E8 can
			// contrast it with the wrapped v2 mimic below.
			//wdlint:ignore fateshare v1 deliberately bypasses watchdog.Op (§3.3 case study)
			fi, err := os.Stat(v.dir)
			if err != nil {
				return &watchdog.OpError{
					Site: watchdog.Site{Function: "dfs.PermissionsChecker", Op: "os.Stat"},
					Err:  err,
				}
			}
			if !fi.IsDir() {
				return fmt.Errorf("dfs: volume %d is not a directory", v.idx)
			}
			if fi.Mode().Perm()&0o200 == 0 {
				return fmt.Errorf("dfs: volume %d is not writable", v.idx)
			}
		}
		return nil
	})
}

// MimicDiskChecker is the v2 checker: a real write/read/verify/delete cycle
// on every volume, through the production write and read fault points, on a
// payload captured from real traffic by the WriteBlock hook when available.
func (dn *DataNode) MimicDiskChecker() watchdog.Checker {
	return watchdog.NewChecker("dfs.disk", func(ctx *watchdog.Context) error {
		payload := ctx.GetBytes("sample")
		if len(payload) == 0 {
			payload = []byte("dfs watchdog block probe payload")
		}
		for _, v := range dn.vols {
			site := watchdog.Site{Function: "dfs.(*DataNode).WriteBlock",
				Op: fmt.Sprintf("volume%d/writeFileSync", v.idx), File: "internal/dfs/dfs.go", Line: 137}
			err := watchdog.Op(ctx, site, func() error {
				if err := dn.inj.Fire(fmt.Sprintf("%s%d", FaultVolumeWritePrefix, v.idx)); err != nil {
					return err
				}
				probe := v.dir + "/__wd__probe.blk"
				if err := writeFileSync(probe, payload); err != nil {
					return err
				}
				if err := dn.inj.Fire(fmt.Sprintf("%s%d", FaultVolumeReadPrefix, v.idx)); err != nil {
					return err
				}
				got, err := os.ReadFile(probe)
				if err != nil {
					return err
				}
				if string(got) != string(payload) {
					return fmt.Errorf("volume %d read-back mismatch", v.idx)
				}
				return os.Remove(probe)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// InstallWatchdog registers both disk checker generations plus the block
// scanner checker on d.
func (dn *DataNode) InstallWatchdog(d *watchdog.Driver) {
	readyCtx := func() *watchdog.Context {
		c := watchdog.NewContext()
		c.MarkReady()
		return c
	}
	d.Register(dn.PermissionsChecker(), watchdog.WithContext(readyCtx()))
	d.Register(dn.MimicDiskChecker()) // hook-fed context (dfs.disk)
	d.Register(dn.scannerChecker(), watchdog.WithContext(readyCtx()))
}

// scannerChecker runs the block scanner as a heavyweight mimic check:
// any corrupt block is a safety violation with the block ID in the error.
func (dn *DataNode) scannerChecker() watchdog.Checker {
	site := watchdog.Site{Function: "dfs.(*DataNode).ScanBlocks", Op: "ReadBlock",
		File: "internal/dfs/dfs.go", Line: 189}
	return watchdog.NewChecker("dfs.scanner", func(ctx *watchdog.Context) error {
		return watchdog.Op(ctx, site, func() error {
			corrupt, err := dn.ScanBlocks()
			if err != nil {
				return err
			}
			if len(corrupt) > 0 {
				return fmt.Errorf("%w: blocks %v", ErrBlockCorrupt, corrupt)
			}
			return nil
		})
	})
}
