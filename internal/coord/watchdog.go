package coord

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"time"

	"gowatchdog/internal/wal"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
)

// This file is the hand-checked twin of what cmd/awgen generates for the
// coord package (see internal/autowatchdog and `awgen -pkg ./internal/coord`):
// reduced versions of the long-running regions' vulnerable operations, a
// checker per region, and context plumbing in the style of the paper's
// Figure 3.

// SerializeSnapshotReduced is the reduced serializeSnapshot of Figure 3: of
// the whole serialize/serializeNode call chain, program logic reduction
// keeps only the vulnerable writeRecord invocation, executed once with
// hook-captured arguments.
func SerializeSnapshotReduced(w *bufio.Writer, nodePath string, data []byte) error {
	return WriteRecord(w, nodePath, data)
}

// InstallWatchdog registers the coord checker suite on d. The driver's
// factory must be the leader's WatchdogFactory. shadow receives checker
// disk I/O.
func (l *Leader) InstallWatchdog(d *watchdog.Driver, shadow *wdio.FS) {
	if l.cfg.FollowerAddr != "" {
		d.Register(l.syncChecker())
	}
	d.Register(l.snapshotChecker(shadow))
	if l.txnLog != nil {
		d.Register(l.txnLogChecker(shadow))
	}
	d.Register(l.pipelineChecker(), watchdog.WithContext(wdReadyContext()))
}

func wdReadyContext() *watchdog.Context {
	ctx := watchdog.NewContext()
	ctx.MarkReady()
	return ctx
}

// syncChecker mimics the sync processor's remote send: it fires the same
// network fault point and performs a real proposal round trip (a ping
// proposal, acknowledged but never applied). When the network path black-
// holes, this checker hangs exactly like the main pipeline's send — shared
// fate — and the driver's timeout pinpoints the blocked call with the
// zxid/path context captured by the hook (§4.2: "detected the timeout fault
// in around seven seconds and pinpointed the blocked function call with a
// concrete context").
func (l *Leader) syncChecker() watchdog.Checker {
	site := watchdog.Site{Function: "coord.sendProposal", Op: "net.Write",
		File: "internal/coord/leader.go", Line: 432}
	return watchdog.NewChecker("coord.sync", func(ctx *watchdog.Context) error {
		addr := ctx.GetString("follower")
		if addr == "" {
			addr = l.cfg.FollowerAddr
		}
		return watchdog.Op(ctx, site, func() error {
			if err := l.inj.Fire(FaultSyncSend); err != nil {
				return err
			}
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			return sendProposal(conn, 5*time.Second, proposalPing, "/__wd__/ping", nil)
		})
	})
}

// snapshotChecker is the generated checker of Figure 3
// (SyncRequestProcessor$Checker.serializeSnapshot_invoke): once the hook has
// prepared the context, it invokes the reduced serializeSnapshot against the
// shadow filesystem — one real writeRecord with the captured node.
func (l *Leader) snapshotChecker(shadow *wdio.FS) watchdog.Checker {
	site := watchdog.Site{Function: "coord.(*DataTree).SerializeSnapshot", Op: "WriteRecord",
		File: "internal/coord/snapshot.go", Line: 107}
	return watchdog.NewChecker("coord.snapshot", func(ctx *watchdog.Context) error {
		// Figure 3: if ctx.status != READY the driver never calls us, so the
		// args are present here.
		nodePath := ctx.GetString("path")
		data := ctx.GetBytes("data")
		return watchdog.Op(ctx, site, func() error {
			if err := l.inj.Fire(FaultSnapshotWrite); err != nil {
				return err
			}
			full, err := shadow.PreparePath("snapshot/probe.snap")
			if err != nil {
				return err
			}
			f, err := os.OpenFile(full, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			w := bufio.NewWriter(f)
			if err := SerializeSnapshotReduced(w, nodePath, data); err != nil {
				f.Close()
				return err
			}
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	})
}

// txnLogChecker mimics the sync processor's durable log write: it appends
// the hook-captured transaction shape to a shadow WAL, syncs, and verifies
// the frames — real disk I/O through the txn-log fault point.
func (l *Leader) txnLogChecker(shadow *wdio.FS) watchdog.Checker {
	site := watchdog.Site{Function: "coord.(*Leader).logTxn", Op: "wal.Append",
		File: "internal/coord/txnlog.go", Line: 108}
	return watchdog.NewChecker("coord.log", func(ctx *watchdog.Context) error {
		path := ctx.GetString("path")
		if path == "" {
			path = "/__wd__/log-probe"
		}
		return watchdog.Op(ctx, site, func() error {
			if err := l.inj.Fire(FaultLogAppend); err != nil {
				return err
			}
			full, err := shadow.PreparePath("txnlog/probe.log")
			if err != nil {
				return err
			}
			log, err := wal.Open(full)
			if err != nil {
				return err
			}
			defer log.Close()
			rec := encodeTxn(proposalPing, path, nil, ctx.GetInt("zxid"))
			if err := log.Append(rec); err != nil {
				return err
			}
			if err := log.Sync(); err != nil {
				return err
			}
			if err := log.Verify(); err != nil {
				return err
			}
			if log.Size() > 1<<20 {
				return log.Reset()
			}
			return nil
		})
	})
}

// pipelineChecker is a signal checker on write-pipeline progress: queued
// requests with no committed-zxid advancement since the previous check
// indicate a wedged pipeline. Weak accuracy (a slow client burst can trip
// it), good coverage — the signal row of Table 2.
func (l *Leader) pipelineChecker() watchdog.Checker {
	var lastCommitted int64
	var seeded bool
	return watchdog.NewChecker("coord.pipeline", func(*watchdog.Context) error {
		_, committed := l.Zxids()
		queued := l.QueueLen()
		defer func() {
			lastCommitted = committed
			seeded = true
		}()
		if !seeded {
			return nil
		}
		if queued > 0 && committed == lastCommitted {
			return &watchdog.OpError{
				Site: watchdog.Site{Op: "signal:pipeline-progress"},
				Err: fmt.Errorf("coord: %d requests queued, committed zxid stalled at %d",
					queued, committed),
			}
		}
		return nil
	})
}
