package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gowatchdog/internal/capsule"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdobs"
)

// showPath renders an offline artifact. A directory is summarized as
// capsules, a .jsonl file (or any file given with rules) is a detection
// journal, and anything else is one capsule.
func showPath(path, rulesPath string) error {
	fi, err := os.Stat(path)
	switch {
	case err != nil:
		return err
	case fi.IsDir():
		return summarizeDir(os.Stdout, path)
	case rulesPath != "" || strings.HasSuffix(path, ".jsonl"):
		return showJournal(path, rulesPath)
	}
	return show(os.Stdout, path)
}

// summarizeDir prints one line per capsule in dir: status, checker and site.
func summarizeDir(w io.Writer, dir string) error {
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return err
	}
	found := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		found = true
		if c, err := capsule.ReadFile(filepath.Join(dir, name)); err != nil {
			fmt.Fprintf(w, "%-40s  (unreadable: %v)\n", name, err)
		} else {
			fmt.Fprintf(w, "%-40s  %-8s  %-12s  %s\n", name, c.Status, c.Checker, c.Site)
		}
	}
	if !found {
		fmt.Fprintln(w, "no capsules found")
	}
	return nil
}

// show prints one capsule: the pinpointed site and the captured
// failure-inducing context, restored as a checker would see it on replay.
func show(w io.Writer, path string) error {
	c, err := capsule.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "checker:  %s\nstatus:   %s\n", c.Checker, c.Status)
	if c.Error != "" {
		fmt.Fprintf(w, "error:    %s\n", c.Error)
	}
	fmt.Fprintf(w, "site:     %s\ntime:     %s  (checker latency %v)\n", c.Site, c.Time, c.Latency)
	ctx, err := c.RestoreContext()
	if err != nil {
		return fmt.Errorf("restore context: %w", err)
	}
	keys := make([]string, 0, len(c.Payload))
	for k := range c.Payload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "context:  %d captured values (restored, ready=%v)\n", len(keys), ctx.Ready())
	for _, k := range keys {
		v, _ := ctx.Get(k)
		if b, ok := v.([]byte); ok {
			fmt.Fprintf(w, "  %-14s = %q (%d bytes)\n", k, clip(string(b), 63), len(b))
		} else {
			fmt.Fprintf(w, "  %-14s = %v\n", k, v)
		}
	}
	return nil
}

// showJournal renders a wdobs JSONL detection journal: the event timeline
// followed by a per-checker rollup. Reading is lenient — journals from crashed
// daemons routinely end in a torn final write — but damage is reported, never
// silently skipped. With a rule file, the journal is additionally replayed
// through the wdcep engine offline and the fired rules are printed with their
// contributing event windows.
func showJournal(path, rulesPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, stats, err := wdobs.ReadJournalLenient(f)
	if err != nil {
		return err
	}
	renderJournal(os.Stdout, events)
	reportJournalDamage(os.Stdout, stats)
	if rulesPath == "" {
		return nil
	}
	return replayRules(os.Stdout, rulesPath, events)
}

// replayRules runs the journal through a fresh wdcep engine under the rule
// file and prints every firing: what fired, when, and the evidence window it
// fired on. Replay evaluates after every event, so firings land at the
// earliest event that completes a rule — a tighter bound than the live
// engine's batched evaluation.
func replayRules(w io.Writer, rulesPath string, events []wdobs.Event) error {
	rules, err := wdcep.LoadRules(rulesPath)
	if err != nil {
		return err
	}
	stream := make([]wdcep.Event, len(events))
	for i, e := range events {
		stream[i] = wdobs.CEPEvent(e)
	}
	firings, err := wdcep.Replay(rules, stream)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nreplayed %d event(s) through %d rule(s): %d firing(s)\n",
		len(stream), len(rules), len(firings))
	for _, f := range firings {
		fmt.Fprintf(w, "  %s  %-20s %-8s count=%d  window %s .. %s",
			f.Time.Format("15:04:05.000"), f.Rule, f.Status, f.Count,
			f.First.Format("15:04:05.000"), f.Last.Format("15:04:05.000"))
		if len(f.Checkers) > 0 {
			fmt.Fprintf(w, "  [%s]", strings.Join(f.Checkers, " "))
		}
		fmt.Fprintln(w)
		if f.Detail != "" {
			fmt.Fprintf(w, "      %s\n", f.Detail)
		}
	}
	return nil
}

// reportJournalDamage prints what the lenient reader had to skip.
func reportJournalDamage(w io.Writer, stats wdobs.JournalReadStats) {
	if stats.Malformed == 0 {
		return
	}
	if stats.TornTail && stats.Malformed == 1 {
		fmt.Fprintf(w, "\nwarning: final line truncated (torn write — daemon likely died mid-append); %d of %d lines replayed\n",
			stats.Events, stats.Lines)
		return
	}
	fmt.Fprintf(w, "\nwarning: %d malformed line(s) skipped (first at line %d", stats.Malformed, stats.FirstMalformedLine)
	if stats.TornTail {
		fmt.Fprint(w, ", final line truncated — torn write")
	}
	fmt.Fprintf(w, "); %d of %d lines replayed\n", stats.Events, stats.Lines)
}

func renderJournal(w io.Writer, events []wdobs.Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "empty journal")
		return
	}
	type rollup struct {
		events, alarms int
		last           string
	}
	byChecker := map[string]*rollup{}
	var alarms int
	for _, e := range events {
		r := byChecker[e.Report.Checker]
		if r == nil {
			r = &rollup{}
			byChecker[e.Report.Checker] = r
		}
		r.events++
		r.last = e.Report.Status.String()
		line := fmt.Sprintf("%5d  %s  %-7s %-24s %s",
			e.Seq, e.Report.Time.Format("15:04:05.000"), e.Kind,
			e.Report.Checker, e.Report.Status)
		switch e.Kind {
		case wdobs.KindAlarm:
			alarms++
			r.alarms++
			line += fmt.Sprintf("  (consecutive=%d", e.Consecutive)
			if e.Validated != nil {
				line += fmt.Sprintf(", validated=%v", *e.Validated)
			}
			line += ")"
		case wdobs.KindCEP:
			line += fmt.Sprintf("  (rule=%s, count=%d)", e.Rule, e.Consecutive)
		case wdobs.KindRecovery:
			line += fmt.Sprintf("  (%s", e.Outcome)
			if e.Action != "" {
				line += fmt.Sprintf(", action=%s", e.Action)
			}
			if e.Attempt > 0 {
				line += fmt.Sprintf(", attempt=%d", e.Attempt)
			}
			line += ")"
		}
		if e.Report.Err != nil {
			line += "  " + clip(e.Report.Err.Error(), 63)
		}
		if !e.Report.Site.IsZero() {
			line += fmt.Sprintf("  @%s", e.Report.Site)
		}
		fmt.Fprintln(w, line)
	}

	fmt.Fprintf(w, "\n%d events, %d alarms, %d checkers\n", len(events), alarms, len(byChecker))
	names := make([]string, 0, len(byChecker))
	for n := range byChecker {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := byChecker[n]
		fmt.Fprintf(w, "  %-24s %3d events  %2d alarms  last status %s\n",
			n, r.events, r.alarms, r.last)
	}
}
