package wdobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"gowatchdog/internal/watchdog"
)

// Event kinds recorded in the detection journal.
const (
	// KindReport marks a journaled checker report: the checker's first
	// report, any abnormal report, and any status transition (including
	// recovery back to healthy). Steady healthy→healthy ticks are not
	// journaled — the journal is a detection record, not a heartbeat log.
	KindReport = "report"
	// KindAlarm marks a raised alarm.
	KindAlarm = "alarm"
	// KindRecovery marks a recovery-manager outcome (recovered, retried,
	// failed, escalated, unmatched), journaled so temporal rules and
	// wdstat see recovery activity next to the detections that drove it.
	KindRecovery = "recovery"
)

// Event is one detection-journal entry. Its JSON form is one line of the
// JSONL sink and the unit wdstat renders.
type Event struct {
	// Seq is the 1-based append sequence number, monotonic per journal.
	Seq int64 `json:"seq"`
	// Kind is KindReport, KindAlarm, KindMesh, KindRecovery, or KindCEP.
	Kind string `json:"kind"`
	// Report is the journaled report (for alarms, the report that crossed
	// the threshold; for recovery and CEP entries, a synthesized report
	// naming the subject).
	Report watchdog.Report `json:"report"`
	// Consecutive and Validated carry the alarm fields for KindAlarm.
	// KindCEP entries reuse Consecutive for the rule's threshold
	// measurement at fire time.
	Consecutive int   `json:"consecutive,omitempty"`
	Validated   *bool `json:"validated,omitempty"`
	// Rule names the fired temporal rule for KindCEP entries.
	Rule string `json:"rule,omitempty"`
	// Outcome, Action, and Attempt carry the recovery-manager fields for
	// KindRecovery entries.
	Outcome string `json:"outcome,omitempty"`
	Action  string `json:"action,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Journal is a bounded ring buffer of detection events with an optional
// JSONL sink. Appends past the capacity evict the oldest events; the sink,
// when set, receives every event regardless of eviction.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	seq     int64
	sink    io.Writer
	sinkErr error
	tap     func(Event)
}

// NewJournal returns a journal retaining the last capacity events
// (default 512 when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 512
	}
	return &Journal{buf: make([]Event, capacity)}
}

// SetSink streams every subsequent event to w as one JSON line. Writes are
// serialized under the journal lock; a write error disables the sink and is
// reported by SinkErr.
func (j *Journal) SetSink(w io.Writer) {
	j.mu.Lock()
	j.sink = w
	j.sinkErr = nil
	j.mu.Unlock()
}

// SinkErr returns the error that disabled the sink, if any.
func (j *Journal) SinkErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// SetTap installs a live event tap: every subsequent appended event is handed
// to fn, sequenced, in append order. The tap runs under the journal lock so
// ordering is exact — it must be non-blocking and must not call back into the
// journal (the wdcep wiring publishes into a lock-free ring, which is safe).
// Pass nil to detach.
func (j *Journal) SetTap(fn func(Event)) {
	j.mu.Lock()
	j.tap = fn
	j.mu.Unlock()
}

// Append assigns the event its sequence number, stores it in the ring, and
// streams it to the sink.
func (j *Journal) Append(e Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	j.buf[j.next] = e
	j.next++
	if j.next == len(j.buf) {
		j.next = 0
		j.full = true
	}
	if j.sink != nil {
		if data, err := json.Marshal(e); err == nil {
			if _, werr := j.sink.Write(append(data, '\n')); werr != nil {
				j.sinkErr = werr
				j.sink = nil
			}
		}
	}
	if j.tap != nil {
		j.tap(e)
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.full {
		return append([]Event(nil), j.buf[:j.next]...)
	}
	out := make([]Event, 0, len(j.buf))
	out = append(out, j.buf[j.next:]...)
	out = append(out, j.buf[:j.next]...)
	return out
}

// Seq returns the total number of events ever appended.
func (j *Journal) Seq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// ReadJournal parses a JSONL detection journal, one Event per line, skipping
// blank lines. It is the decoding counterpart of the journal sink, shared by
// wdstat and anything else replaying a journal file. It is strict: the first
// malformed line aborts the read. Use ReadJournalLenient when the file may end
// in a torn write (a daemon killed mid-append).
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	// Report payloads can make lines large; allow up to 4 MiB per event.
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("wdobs: journal line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wdobs: journal line %d: %w", line, err)
	}
	return events, nil
}

// JournalReadStats accounts for what ReadJournalLenient encountered, so a
// replay over a crashed daemon's journal reports damage instead of silently
// absorbing it.
type JournalReadStats struct {
	// Lines counts non-blank lines seen.
	Lines int
	// Events counts lines that decoded into events.
	Events int
	// Malformed counts lines that failed to decode.
	Malformed int
	// FirstMalformedLine is the 1-based line number of the first decode
	// failure (0 when Malformed == 0).
	FirstMalformedLine int
	// TornTail reports that the final non-blank line was malformed — the
	// signature of a torn final write: the daemon died mid-append and the
	// line was truncated. Mid-file corruption is counted but not flagged
	// as torn.
	TornTail bool
}

// ReadJournalLenient parses a JSONL detection journal, tolerating malformed
// lines: they are counted in the returned stats and skipped rather than
// aborting the read. The error return is reserved for I/O failures (including
// an over-long line overflowing the scanner buffer).
func ReadJournalLenient(r io.Reader) ([]Event, JournalReadStats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		events []Event
		stats  JournalReadStats
		line   int
	)
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		stats.Lines++
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			stats.Malformed++
			if stats.FirstMalformedLine == 0 {
				stats.FirstMalformedLine = line
			}
			stats.TornTail = true
			continue
		}
		stats.TornTail = false
		stats.Events++
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, stats, fmt.Errorf("wdobs: journal line %d: %w", line, err)
	}
	return events, stats, nil
}
