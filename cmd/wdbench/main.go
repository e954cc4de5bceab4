// Command wdbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and prints them. The
// -paper flag runs the ZK-2201 case study with the paper's original
// watchdog parameters (1s interval, 6s timeout — detection around seven
// seconds) instead of the scaled-down defaults.
//
// With -scrape <host:port>, wdbench snapshots a running daemon's wdobs
// /watchdog endpoint before and after the experiment run and prints the
// delta, so the cost a benchmark run imposes on a live watchdog is visible
// next to the tables it produces.
//
// Performance numbers (serving-path throughput, watchdog overhead, wdcep
// ingest cost, mesh message volume) come from the benchmark/ module, not
// from here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"gowatchdog/internal/experiment"
	"gowatchdog/internal/wdobs"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment: table1|table2|zk2201|context|validate|disk|coverage|overhead|reduction|all")
		paper  = flag.Bool("paper", false, "use the paper's 1s/6s watchdog parameters for zk2201")
		scrape = flag.String("scrape", "", "wdobs address to snapshot before and after the run")
	)
	flag.Parse()

	var before *wdobs.Snapshot
	if *scrape != "" {
		var err error
		if before, err = scrapeSnapshot(*scrape); err != nil {
			log.Fatalf("wdbench: scrape %s: %v", *scrape, err)
		}
	}
	if *scrape != "" {
		defer func() {
			after, err := scrapeSnapshot(*scrape)
			if err != nil {
				log.Printf("wdbench: scrape %s: %v", *scrape, err)
				return
			}
			printScrapeDelta(*scrape, before, after)
		}()
	}

	scratch, err := os.MkdirTemp("", "wdbench-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

	run := func(name string, fn func() (interface{ Render() string }, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		res, err := fn()
		if err != nil {
			log.Fatalf("wdbench: %s: %v", name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() (interface{ Render() string }, error) {
		return experiment.RunTable1(filepath.Join(scratch, "t1"), 0)
	})
	run("table2", func() (interface{ Render() string }, error) {
		return experiment.RunTable2(filepath.Join(scratch, "t2"), 0)
	})
	run("zk2201", func() (interface{ Render() string }, error) {
		interval, timeout := time.Duration(0), time.Duration(0)
		if *paper {
			interval, timeout = time.Second, 6*time.Second
			fmt.Println("(running zk2201 with paper parameters: 1s interval / 6s timeout; this takes ~30s)")
		}
		return experiment.RunZK2201(filepath.Join(scratch, "zk"), interval, timeout)
	})
	run("context", func() (interface{ Render() string }, error) {
		return experiment.RunContextAblation(filepath.Join(scratch, "ctx"), 0)
	})
	run("validate", func() (interface{ Render() string }, error) {
		return experiment.RunValidationChain(filepath.Join(scratch, "val"), 0)
	})
	run("disk", func() (interface{ Render() string }, error) {
		return experiment.RunDiskChecker(filepath.Join(scratch, "disk"), 0)
	})
	run("coverage", func() (interface{ Render() string }, error) {
		return experiment.RunCheckerCoverage(filepath.Join(scratch, "cov"), 0)
	})
	run("overhead", func() (interface{ Render() string }, error) {
		return experiment.RunOverhead(filepath.Join(scratch, "oh"), 0)
	})
	run("reduction", func() (interface{ Render() string }, error) {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root, err := experiment.FindModuleRoot(wd)
		if err != nil {
			return nil, err
		}
		return experiment.RunReduction(root)
	})
}

// scrapeSnapshot fetches one /watchdog snapshot from a wdobs server with an
// explicit timeout and a single backoff-delayed retry.
func scrapeSnapshot(addr string) (*wdobs.Snapshot, error) {
	return wdobs.NewScrapeClient(3 * time.Second).Snapshot(addr)
}

// printScrapeDelta summarizes what the observed daemon's watchdog did over
// the benchmark window.
func printScrapeDelta(addr string, before, after *wdobs.Snapshot) {
	window := after.Time.Sub(before.Time).Round(time.Millisecond)
	fmt.Printf("watchdog activity at %s over the %v run window:\n", addr, window)
	fmt.Printf("  reports %d -> %d (+%d), alarms %d -> %d (+%d), journal events +%d\n",
		before.Reports, after.Reports, after.Reports-before.Reports,
		before.Alarms, after.Alarms, after.Alarms-before.Alarms,
		after.JournalSeq-before.JournalSeq)
	prev := map[string]wdobs.CheckerSnapshot{}
	for _, c := range before.Checkers {
		prev[c.Name] = c
	}
	for _, c := range after.Checkers {
		p := prev[c.Name]
		if c.Runs == p.Runs && c.Abnormal == p.Abnormal {
			continue
		}
		fmt.Printf("  %-28s +%d runs (+%d abnormal), now %s, p99 %v\n",
			c.Name, c.Runs-p.Runs, c.Abnormal-p.Abnormal, c.Status,
			time.Duration(c.Latency.P99NS).Round(time.Microsecond))
	}
}
