// Command kvsd runs the kvs key-value store (the paper's Figure 1 running
// example) with its generated watchdog suite, optionally injecting a gray
// failure after a delay so the watchdog's detection can be observed live.
//
// Usage:
//
//	kvsd -dir /tmp/kvs -addr :7070 -watchdog
//	kvsd -dir /tmp/kvs -addr :7070 -watchdog -inject kvs.flusher.write=hang -inject-after 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"gowatchdog/internal/capsule"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
	"gowatchdog/internal/recovery"
	"gowatchdog/internal/supervise"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdruntime"
)

func main() {
	var (
		dir         = flag.String("dir", "kvs-data", "data directory")
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address")
		replica     = flag.String("replica", "", "replica address to stream mutations to")
		serveRepl   = flag.Bool("serve-replica", false, "run as a replica (apply stream on -addr)")
		inMemory    = flag.Bool("in-memory", false, "disable WAL and SSTables")
		useWatchdog = flag.Bool("watchdog", true, "run the generated watchdog suite")
		inject      = flag.String("inject", "", "fault to inject: <kvs fault point>=<hang|error|delay|panic>")
		injectAfter = flag.Duration("inject-after", 5*time.Second, "delay before injecting")
		capsuleDir  = flag.String("capsules", "", "directory to record failure capsules (§5.2)")
		autoRecover = flag.Bool("recover", false, "enable cheap recovery on alarms (§5.2)")
		recoverExit = flag.Bool("recover-exit", false, "with -recover: exit 70 when escalation fails so a supervisor (wdsuper/systemd) restarts the process")
	)
	wdcfg := wdruntime.BindFlags(flag.CommandLine)
	flag.Parse()

	factory := watchdog.NewFactory()
	store, err := kvs.Open(kvs.Config{
		Dir:             *dir,
		InMemory:        *inMemory,
		ReplicaAddr:     *replica,
		WatchdogFactory: factory,
	})
	if err != nil {
		log.Fatalf("kvsd: %v", err)
	}
	defer store.Close()
	store.Start()

	if *serveRepl {
		rs, err := kvs.ServeReplica(*addr, store)
		if err != nil {
			log.Fatalf("kvsd: %v", err)
		}
		defer rs.Close()
		log.Printf("kvsd: replica applying stream on %s", rs.Addr())
		waitForSignal()
		return
	}

	srv, err := kvs.Serve(*addr, store)
	if err != nil {
		log.Fatalf("kvsd: %v", err)
	}
	defer srv.Close()
	log.Printf("kvsd: serving on %s (dir=%s in-memory=%v)", srv.Addr(), *dir, *inMemory)

	if *useWatchdog {
		shadow, err := wdio.NewFS(kvs.ShadowDirFor(*dir), 0)
		if err != nil {
			log.Fatalf("kvsd: shadow fs: %v", err)
		}
		wdcfg.Factory = factory
		wdcfg.Registry = store.Metrics()
		if *autoRecover {
			var mopts []recovery.Option
			if *recoverExit {
				// The ladder's top rung: when in-process recovery keeps
				// failing, exit with the watchdog-trigger code and let the
				// supervisor restart us as a fresh process.
				mopts = append(mopts, recovery.WithEscalationExit(supervise.ExitWatchdogTrigger))
			}
			mgr := recovery.New(mopts...)
			mgr.Register(recovery.ForSiteOp("quarantine-corrupt-tables", "sstable.VerifyChecksum",
				func(rep watchdog.Report) error {
					total := 0
					for i := 0; i < store.Partitions(); i++ {
						n, err := store.RepairPartition(i)
						if err != nil {
							return err
						}
						total += n
					}
					log.Printf("kvsd: recovery quarantined %d corrupt tables", total)
					return nil
				}))
			wdcfg.Recovery = mgr
			log.Print("kvsd: cheap recovery enabled")
		}
		rt, err := wdruntime.New(wdruntime.FromConfig(wdcfg))
		if err != nil {
			log.Fatalf("kvsd: %v", err)
		}
		driver := rt.Driver()
		store.InstallWatchdog(driver, shadow)
		driver.OnAlarm(func(a watchdog.Alarm) {
			log.Printf("WATCHDOG ALARM: %s (consecutive=%d)", a.Report, a.Consecutive)
			if !a.Report.Site.IsZero() {
				log.Printf("  pinpoint: %s", a.Report.Site)
			}
			for k, v := range a.Report.Payload {
				log.Printf("  context %s = %v", k, v)
			}
		})
		if *capsuleDir != "" {
			rec, err := capsule.NewRecorder(*capsuleDir)
			if err != nil {
				log.Fatalf("kvsd: capsules: %v", err)
			}
			var recMu sync.Mutex
			driver.OnReport(func(rep watchdog.Report) {
				recMu.Lock()
				rec.OnReport(rep)
				recMu.Unlock()
			})
			log.Printf("kvsd: recording failure capsules to %s", *capsuleDir)
		}
		if err := rt.Start(context.Background()); err != nil {
			log.Fatalf("kvsd: %v", err)
		}
		defer func() {
			if err := rt.Close(); err != nil {
				log.Printf("kvsd: watchdog shutdown: %v", err)
			}
		}()
		if wdcfg.JournalPath != "" {
			log.Printf("kvsd: streaming detection journal to %s", wdcfg.JournalPath)
		}
		if obsAddr := rt.ObsAddr(); obsAddr != "" {
			log.Printf("kvsd: observability on http://%s (/metrics /healthz /watchdog /debug/pprof)", obsAddr)
		}
		log.Printf("kvsd: watchdog running with %d checkers (interval=%v timeout=%v)",
			len(driver.Checkers()), wdcfg.Interval, wdcfg.Timeout)
	}

	if *inject != "" {
		point, kind, err := parseInjection(*inject)
		if err != nil {
			log.Fatalf("kvsd: %v", err)
		}
		go func() {
			time.Sleep(*injectAfter)
			store.Injector().Arm(point, faultinject.Fault{Kind: kind, Delay: 2 * wdcfg.Timeout})
			log.Printf("kvsd: injected %s at %s", kind, point)
		}()
	}

	waitForSignal()
	log.Print("kvsd: shutting down")
}

// faultPoints are the store's instrumented fault points; an -inject naming
// anything else would arm a fault no code path fires.
var faultPoints = []string{
	kvs.FaultIndexerPut, kvs.FaultIndexerGet, kvs.FaultWALAppend, kvs.FaultFlushWrite,
	kvs.FaultCompactMerge, kvs.FaultReplSend, kvs.FaultListenerHandle, kvs.FaultSSTableRead,
}

// parseInjection parses "<point>=<kind>". Only kinds a kvs fault point acts
// on are accepted: the store fires its points through Fire, never FireData,
// so a corrupt fault would never trigger.
func parseInjection(s string) (string, faultinject.Kind, error) {
	point, kindStr, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("bad -inject %q, want <point>=<kind>", s)
	}
	if !slices.Contains(faultPoints, point) {
		return "", 0, fmt.Errorf("unknown fault point %q, want one of %s", point, strings.Join(faultPoints, ", "))
	}
	switch kindStr {
	case "hang":
		return point, faultinject.Hang, nil
	case "error":
		return point, faultinject.Error, nil
	case "delay":
		return point, faultinject.Delay, nil
	case "panic":
		return point, faultinject.Panic, nil
	default:
		return "", 0, fmt.Errorf("unknown fault kind %q, want hang, error, delay or panic", kindStr)
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
