// Command coordd runs the coordination service (leader or follower) with
// its watchdog, heartbeat detector, and admin command server — the full
// setup of the paper's §4.2 case study. With -zk2201 it injects the
// ZOOKEEPER-2201 network fault after a delay and logs what each detector
// sees.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/coord"
	"gowatchdog/internal/detect"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/watchdog/wdio"
	"gowatchdog/internal/wdruntime"
)

func main() {
	var (
		follower    = flag.Bool("follower", false, "run as follower")
		addr        = flag.String("addr", "127.0.0.1:7080", "follower proposal listen address")
		clientAddr  = flag.String("client", "127.0.0.1:7082", "client protocol address (leader mode)")
		leaderTo    = flag.String("connect", "", "leader mode: follower address to sync to")
		adminAddr   = flag.String("admin", "127.0.0.1:7081", "admin command address (leader mode)")
		shadowDir   = flag.String("shadow", "coord-shadow", "watchdog shadow directory")
		snapDir     = flag.String("snapshots", "coord-snapshots", "snapshot service directory")
		logDir      = flag.String("log", "coord-log", "transaction log directory (empty disables)")
		snapEvery   = flag.Duration("snapshot-interval", 30*time.Second, "snapshot cadence")
		zk2201      = flag.Bool("zk2201", false, "inject the ZOOKEEPER-2201 network hang")
		injectAfter = flag.Duration("inject-after", 10*time.Second, "delay before injection")
	)
	wdcfg := wdruntime.BindFlags(flag.CommandLine)
	flag.Parse()

	if *follower {
		f, err := coord.NewFollower(*addr)
		if err != nil {
			log.Fatalf("coordd: %v", err)
		}
		defer f.Close()
		log.Printf("coordd: follower on %s", f.Addr())
		waitForSignal()
		return
	}

	factory := watchdog.NewFactory()
	leader := coord.NewLeader(coord.LeaderConfig{
		FollowerAddr:    *leaderTo,
		WatchdogFactory: factory,
	})
	if *logDir != "" {
		if err := leader.OpenTxnLog(*logDir); err != nil {
			log.Fatalf("coordd: %v", err)
		}
	}
	hb := detect.NewHeartbeat(clock.Real(), wdcfg.Timeout)
	leader.OnHeartbeat(hb.Beat)
	leader.Start()
	defer leader.Close()

	admin, err := coord.ServeAdmin(*adminAddr, leader)
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	defer admin.Close()

	clients, err := coord.ServeClients(*clientAddr, leader, 10*time.Second)
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	defer clients.Close()

	snap, err := leader.StartSnapshotService(*snapDir, *snapEvery, 2)
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	defer snap.Close()
	log.Printf("coordd: leader up (clients on %s, admin on %s, follower=%q, snapshots in %s)",
		clients.Addr(), admin.Addr(), *leaderTo, *snapDir)

	shadow, err := wdio.NewFS(*shadowDir, 0)
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	wdcfg.Factory = factory
	rt, err := wdruntime.New(wdruntime.FromConfig(wdcfg))
	if err != nil {
		log.Fatalf("coordd: %v", err)
	}
	driver := rt.Driver()
	leader.InstallWatchdog(driver, shadow)
	driver.OnAlarm(func(a watchdog.Alarm) {
		log.Printf("WATCHDOG ALARM: %s", a.Report)
		if !a.Report.Site.IsZero() {
			log.Printf("  pinpoint: %s", a.Report.Site)
		}
	})
	if err := rt.Start(context.Background()); err != nil {
		log.Fatalf("coordd: %v", err)
	}
	defer func() {
		if err := rt.Close(); err != nil {
			log.Printf("coordd: watchdog shutdown: %v", err)
		}
	}()
	if wdcfg.JournalPath != "" {
		log.Printf("coordd: streaming detection journal to %s", wdcfg.JournalPath)
	}
	if obsAddr := rt.ObsAddr(); obsAddr != "" {
		log.Printf("coordd: observability on http://%s", obsAddr)
	}

	// Steady write traffic so the pipeline (and hooks) stay active.
	go func() {
		leader.SubmitWait(coord.OpCreate, "/app", []byte("root"), 5*time.Second)
		i := 0
		for {
			time.Sleep(500 * time.Millisecond)
			i++
			err := leader.SubmitWait(coord.OpSet, "/app", []byte{byte(i)}, 2*time.Second)
			if err != nil {
				log.Printf("coordd: write stalled: %v", err)
			}
		}
	}()

	// Periodic view of what the extrinsic detectors believe.
	go func() {
		for {
			time.Sleep(2 * time.Second)
			ruok := "imok"
			if err := coord.AdminRuok(admin.Addr()); err != nil {
				ruok = "FAIL"
			}
			log.Printf("coordd: heartbeat-suspect=%v admin=%s watchdog-healthy=%v",
				hb.Suspect(), ruok, driver.Healthy())
		}
	}()

	if *zk2201 {
		go func() {
			time.Sleep(*injectAfter)
			leader.Injector().Arm(coord.FaultSyncSend, faultinject.Fault{Kind: faultinject.Hang})
			log.Printf("coordd: ZK-2201 injected — follower sync now black-holes inside the commit lock")
		}()
	}

	waitForSignal()
	log.Print("coordd: shutting down")
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
