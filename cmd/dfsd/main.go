// Command dfsd runs the dfs DataNode with both generations of its disk
// checker (§3.3 / HADOOP-13738), writes steady block traffic, and can
// inject a partial volume failure to show the v1 permissions checker stay
// green while the v2 mimic checker detects.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gowatchdog/internal/dfs"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

func main() {
	var (
		dir         = flag.String("dir", "dfs-data", "base directory for volumes")
		volumes     = flag.Int("volumes", 2, "number of volumes")
		failVolume  = flag.Int("fail-volume", -1, "volume to fail (-1 = none)")
		failKind    = flag.String("fail-kind", "error", "volume fault kind: error|hang|delay")
		injectAfter = flag.Duration("inject-after", 5*time.Second, "delay before injection")
	)
	wdcfg := wdruntime.BindFlags(flag.CommandLine)
	flag.Parse()

	dirs := make([]string, *volumes)
	for i := range dirs {
		dirs[i] = filepath.Join(*dir, fmt.Sprintf("vol%d", i))
	}
	factory := watchdog.NewFactory()
	dn, err := dfs.New(dfs.Config{VolumeDirs: dirs, WatchdogFactory: factory})
	if err != nil {
		log.Fatalf("dfsd: %v", err)
	}
	log.Printf("dfsd: DataNode up with %d volumes under %s", *volumes, *dir)

	wdcfg.Factory = factory
	rt, err := wdruntime.New(wdruntime.FromConfig(wdcfg))
	if err != nil {
		log.Fatalf("dfsd: %v", err)
	}
	driver := rt.Driver()
	dn.InstallWatchdog(driver)
	driver.OnReport(func(rep watchdog.Report) {
		if rep.Status.Abnormal() {
			log.Printf("WATCHDOG: %s", rep)
		}
	})
	if err := rt.Start(context.Background()); err != nil {
		log.Fatalf("dfsd: %v", err)
	}
	defer func() {
		if err := rt.Close(); err != nil {
			log.Printf("dfsd: watchdog shutdown: %v", err)
		}
	}()
	if wdcfg.JournalPath != "" {
		log.Printf("dfsd: streaming detection journal to %s", wdcfg.JournalPath)
	}
	if obsAddr := rt.ObsAddr(); obsAddr != "" {
		log.Printf("dfsd: observability on http://%s", obsAddr)
	}

	// Steady block traffic.
	go func() {
		i := 0
		for {
			time.Sleep(500 * time.Millisecond)
			i++
			if _, err := dn.WriteBlock([]byte(fmt.Sprintf("block payload %d", i))); err != nil {
				log.Printf("dfsd: write failed: %v", err)
			}
		}
	}()

	if *failVolume >= 0 {
		kind := faultinject.Error
		switch *failKind {
		case "hang":
			kind = faultinject.Hang
		case "delay":
			kind = faultinject.Delay
		}
		go func() {
			time.Sleep(*injectAfter)
			point := fmt.Sprintf("%s%d", dfs.FaultVolumeWritePrefix, *failVolume)
			dn.Injector().Arm(point, faultinject.Fault{Kind: kind, Delay: 2 * wdcfg.Timeout})
			log.Printf("dfsd: injected %s at %s", *failKind, point)
		}()
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Print("dfsd: shutting down")
}
