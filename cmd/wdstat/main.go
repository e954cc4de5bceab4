// Command wdstat is the operator's view of the watchdog. Live, it renders a
// daemon's wdobs /watchdog endpoint, once or with -watch like `watch(1)`.
// Offline, it reads what a daemon leaves behind: a wdsuper episode ledger,
// §5.2 failure capsules, or a JSONL detection journal, optionally replayed
// through wdcep rules.
//
// Usage:
//
//	wdstat -addr 127.0.0.1:9120
//	wdstat -addr 127.0.0.1:9120 -watch -every 2s
//	wdstat -addr 127.0.0.1:9120 -json
//	wdstat -episodes wdsuper-episodes.jsonl
//	wdstat failure.json                         # one capsule
//	wdstat /var/kvs/capsules                    # summarize a capsule directory
//	wdstat detections.jsonl                     # journal timeline
//	wdstat -rules rules.json detections.jsonl   # replay through wdcep rules
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"gowatchdog/internal/supervise/episode"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdobs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9120", "daemon observability address (host:port)")
		watch    = flag.Bool("watch", false, "poll continuously instead of one-shot")
		every    = flag.Duration("every", time.Second, "poll interval with -watch")
		rawJSON  = flag.Bool("json", false, "print the raw JSON snapshot and exit")
		timeout  = flag.Duration("timeout", 3*time.Second, "per-attempt HTTP timeout (one retry with backoff on transient failures)")
		episodes = flag.String("episodes", "", "render a wdsuper outage-episode ledger file offline and exit (no daemon needed)")
		rules    = flag.String("rules", "", "wdcep JSON rule file: replay the journal argument through the temporal rule engine and print fired rules")
	)
	flag.Parse()

	if flag.NArg() > 1 || (*rules != "" && flag.NArg() == 0) {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		if err := showPath(flag.Arg(0), *rules); err != nil {
			fatal(err)
		}
		return
	}
	if *episodes != "" {
		eps, torn, err := episode.Read(*episodes)
		if err != nil {
			fatal(err)
		}
		renderEpisodes(os.Stdout, episode.SnapshotOf(eps, torn, len(eps)))
		return
	}

	client := wdobs.NewScrapeClient(*timeout)

	if *rawJSON {
		body, err := client.RawSnapshot(*addr)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(body)
		return
	}

	for {
		snap, err := client.Snapshot(*addr)
		if err != nil {
			if !*watch {
				fatal(err)
			}
			fmt.Printf("wdstat: %v\n", err)
		} else {
			if *watch {
				// Poor man's clear-screen keeps the dependency surface at zero.
				fmt.Print("\033[H\033[2J")
			}
			render(os.Stdout, *addr, snap)
		}
		if !*watch {
			if err == nil && !snap.Healthy {
				os.Exit(1)
			}
			return
		}
		time.Sleep(*every)
	}
}

// render prints the snapshot as an aligned table.
func render(w io.Writer, addr string, snap *wdobs.Snapshot) {
	health := "HEALTHY"
	if !snap.Healthy {
		health = "UNHEALTHY"
	}
	fmt.Fprintf(w, "watchdog @ %s — %s  (reports=%d alarms=%d journal=%d)  %s\n",
		addr, health, snap.Reports, snap.Alarms, snap.JournalSeq,
		snap.Time.Format("15:04:05"))

	rows := [][]string{{
		"CHECKER", "STATUS", "RUNS", "ABN", "CONSEC", "TRANS", "STUCK",
		"BREAKER", "FLAPS", "P50", "P99", "CTX AGE", "LAST",
	}}
	checkers := append([]wdobs.CheckerSnapshot(nil), snap.Checkers...)
	sort.SliceStable(checkers, func(i, j int) bool { return checkers[i].Name < checkers[j].Name })
	for _, c := range checkers {
		status := c.Status.String()
		if c.Paused {
			status += " (paused)"
		}
		ctxAge := "never"
		if c.Context.StalenessNS >= 0 {
			ctxAge = shortDur(time.Duration(c.Context.StalenessNS))
		}
		last := ""
		if c.LastReport != nil && c.LastReport.Err != nil {
			last = clip(c.LastReport.Err.Error(), 40)
		}
		rows = append(rows, []string{
			c.Name, status,
			fmt.Sprint(c.Runs), fmt.Sprint(c.Abnormal), fmt.Sprint(c.Consecutive),
			fmt.Sprint(c.Transitions), fmt.Sprint(c.Stuck),
			breakerCell(c), fmt.Sprint(c.Flaps),
			shortDur(time.Duration(c.Latency.P50NS)), shortDur(time.Duration(c.Latency.P99NS)),
			ctxAge, last,
		})
	}
	printTable(w, rows)
	if snap.Mesh != nil {
		renderMesh(w, snap.Mesh)
	}
	if snap.CEP != nil {
		renderCEP(w, snap.CEP)
	}
	if snap.Recovery != nil {
		fmt.Fprintf(w, "\nrecovery: events=%d dropped=%d\n",
			snap.Recovery.Events, snap.Recovery.Dropped)
	}
	if snap.Episodes != nil {
		renderEpisodes(w, snap.Episodes)
	}
}

// meshTopK bounds the mesh peer table: at cluster scale (hundreds to a
// thousand peers) the operator needs the abnormal links, not a thousand
// healthy rows.
const meshTopK = 10

// renderMesh prints the cluster health plane: a summary line, active cluster
// verdicts, and a table of at most meshTopK abnormal peers (non-ok
// observation, demoted link, or drops/failures on the link) ranked worst
// first, with the healthy remainder summarized to one line.
func renderMesh(w io.Writer, m *wdmesh.Snapshot) {
	fmt.Fprintf(w, "\nmesh: self=%s quorum=%d fanout=%d  peers=%d (alive=%d suspect=%d demoted=%d)  sent=%d recv=%d deltas=%d fullsync=%d drops=%d\n",
		m.Self, m.Quorum, m.Fanout, len(m.Peers), m.PeersAlive, m.PeersSuspect, m.PeersDemoted,
		m.MessagesSent, m.MessagesReceived, m.DeltaEntries, m.FullSyncs, m.QueueDrops)
	if t := m.Transport; t != nil {
		fmt.Fprintf(w, "mesh transport: reconnects=%d protocol-errors=%d oversized=%d\n",
			t.Reconnects, t.ProtocolErrors, t.OversizedFrames)
	}
	if len(m.Verdicts) > 0 {
		rows := [][]string{{"VERDICT", "KIND", "VOTES", "WORST", "SINCE"}}
		for _, v := range m.Verdicts {
			rows = append(rows, []string{
				v.Node, v.Kind, fmt.Sprint(v.Votes), v.Worst.String(), v.Since.Format("15:04:05"),
			})
		}
		printTable(w, rows)
	}

	abnormal := make([]wdmesh.PeerSnapshot, 0, len(m.Peers))
	for _, p := range m.Peers {
		if meshSeverity(p) > 0 {
			abnormal = append(abnormal, p)
		}
	}
	healthy := len(m.Peers) - len(abnormal)
	if len(abnormal) == 0 {
		fmt.Fprintf(w, "all %d peers healthy\n", len(m.Peers))
		return
	}
	sort.SliceStable(abnormal, func(i, j int) bool {
		si, sj := meshSeverity(abnormal[i]), meshSeverity(abnormal[j])
		if si != sj {
			return si > sj
		}
		if abnormal[i].SendFailures != abnormal[j].SendFailures {
			return abnormal[i].SendFailures > abnormal[j].SendFailures
		}
		if abnormal[i].QueueDrops != abnormal[j].QueueDrops {
			return abnormal[i].QueueDrops > abnormal[j].QueueDrops
		}
		return abnormal[i].Node < abnormal[j].Node
	})
	shown := abnormal
	if len(shown) > meshTopK {
		shown = shown[:meshTopK]
	}
	rows := [][]string{{"PEER", "OBS", "WORST", "SEQ", "HEARD", "DROPS", "FAILS", "LINK"}}
	for _, p := range shown {
		heard := "never"
		if p.LastHeardNS >= 0 {
			heard = shortDur(time.Duration(p.LastHeardNS))
		}
		link := "ok"
		if p.Demoted {
			link = fmt.Sprintf("demoted x%d", p.ConsecFailures)
		} else if p.ConsecFailures > 0 {
			link = fmt.Sprintf("failing x%d", p.ConsecFailures)
		}
		rows = append(rows, []string{
			p.Node, p.Observation, p.Worst.String(), fmt.Sprint(p.Seq), heard,
			fmt.Sprint(p.QueueDrops), fmt.Sprint(p.SendFailures), link,
		})
	}
	printTable(w, rows)
	if rest := len(abnormal) - len(shown); rest > 0 {
		fmt.Fprintf(w, "... and %d more abnormal peer(s)\n", rest)
	}
	if healthy > 0 {
		fmt.Fprintf(w, "... and %d healthy peer(s)\n", healthy)
	}
}

// meshSeverity ranks a peer link for the abnormal table: suspected
// observations outrank link trouble, which outranks backpressure residue.
func meshSeverity(p wdmesh.PeerSnapshot) int {
	switch {
	case p.Observation == wdmesh.ObsUnreachable:
		return 4
	case p.Observation == wdmesh.ObsAlarming:
		return 3
	case p.Demoted:
		return 2
	case p.QueueDrops > 0 || p.SendFailures > 0 || p.ConsecFailures > 0:
		return 1
	}
	return 0
}

// renderEpisodes prints the supervision plane's outage history: the ledger
// totals and one row per episode, newest last.
func renderEpisodes(w io.Writer, s *episode.Snapshot) {
	fmt.Fprintf(w, "\nepisodes: total=%d open=%d", s.Total, s.Open)
	if s.TornRecords > 0 {
		fmt.Fprintf(w, " torn=%d", s.TornRecords)
	}
	fmt.Fprintln(w)
	if len(s.Episodes) == 0 {
		return
	}
	rows := [][]string{{"ID", "DAEMON", "CAUSE", "OPENED", "RESTARTS", "RESOLUTION", "OUTAGE", "TO-HEALTHY"}}
	for _, e := range s.Episodes {
		resolution := "open"
		outage, healthy := "-", "-"
		if e.Closed {
			resolution = e.Resolution
			outage = shortDur(time.Duration(e.OutageNS))
			healthy = shortDur(time.Duration(e.HealthyNS))
		}
		if e.Adopted {
			resolution += " (adopted)"
		}
		rows = append(rows, []string{
			fmt.Sprint(e.ID), e.Daemon, e.Cause, e.OpenedAt.Format("15:04:05"),
			fmt.Sprint(e.Restarts), resolution, outage, healthy,
		})
	}
	printTable(w, rows)
}

// renderCEP prints the temporal-rule engine section: the stream counters and
// a per-rule fire table.
func renderCEP(w io.Writer, c *wdcep.Snapshot) {
	fmt.Fprintf(w, "\ncep: %d rules, %d fired  (published=%d dropped=%d evaluations=%d)\n",
		c.Rules, c.Fired, c.Published, c.Dropped, c.Evaluations)
	if len(c.RuleStats) == 0 {
		return
	}
	rows := [][]string{{"RULE", "KIND", "FIRED", "LAST"}}
	for _, r := range c.RuleStats {
		last := "-"
		if !r.LastFired.IsZero() {
			last = r.LastFired.Format("15:04:05")
		}
		rows = append(rows, []string{r.Name, string(r.Kind), fmt.Sprint(r.Fired), last})
	}
	printTable(w, rows)
}

// breakerCell renders a checker's circuit-breaker column: "-" when no breaker
// is configured, the state name otherwise, the retry countdown while open, and
// the cumulative trip count once there is one.
func breakerCell(c wdobs.CheckerSnapshot) string {
	if c.Breaker == "" {
		return "-"
	}
	cell := c.Breaker
	if c.BreakerRetryNS > 0 {
		cell += "(" + shortDur(time.Duration(c.BreakerRetryNS)) + ")"
	}
	if c.BreakerTrips > 0 {
		cell += fmt.Sprintf(" x%d", c.BreakerTrips)
	}
	return cell
}

// shortDur formats a duration with two significant units at most.
func shortDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// clip cuts s to at most n bytes, marking a cut with a trailing "...".
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func printTable(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wdstat: %v\n", err)
	os.Exit(1)
}
