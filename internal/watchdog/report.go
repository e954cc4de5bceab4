// Package watchdog implements the intrinsic software watchdog abstraction
// from "Comprehensive and Efficient Runtime Checking in System Software
// through Watchdogs" (HotOS '19).
//
// A watchdog is an extension embedded in the main program (it lives in the
// same address space) that encapsulates checking procedures — checkers — and
// a driver that schedules and executes them concurrently with the normal
// execution. When a checker gets stuck, crashes, or triggers an error, the
// driver catches the failure signature, pinpoints the vulnerable operation
// that was executing, and raises an alarm carrying the failure-inducing
// context (§3.1).
//
// State flows one way: hooks placed in the main program update per-checker
// contexts; checkers only run once their context is ready, which prevents
// spurious reports about code paths the main program never exercised (§3.1,
// ablated in experiment E7).
package watchdog

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Status classifies the outcome of one checker execution.
type Status int

const (
	// StatusHealthy means the checker completed without detecting a fault.
	StatusHealthy Status = iota
	// StatusContextPending means the checker was skipped because its context
	// has not been populated by the main program yet. Not a fault.
	StatusContextPending
	// StatusError means the checker detected a safety violation: an
	// operation returned an error or produced wrong data.
	StatusError
	// StatusStuck means the checker exceeded its liveness timeout, implying
	// the mimicked operation blocks in the main program too (shared fate).
	StatusStuck
	// StatusCrashed means the checker panicked, exposing a crashing defect.
	StatusCrashed
	// StatusSlow means the checker completed but took anomalously long,
	// implying fail-slow behaviour rather than a full hang.
	StatusSlow
	// StatusSkipped means the driver declined to execute the checker to
	// protect itself: its circuit breaker is open, or the hung-goroutine
	// budget is exhausted (§3.2 isolation — a misbehaving checker must not
	// take the watchdog down with it). Not a fault of the main program; Err
	// explains which guard fired.
	StatusSkipped
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusContextPending:
		return "context-pending"
	case StatusError:
		return "error"
	case StatusStuck:
		return "stuck"
	case StatusCrashed:
		return "crashed"
	case StatusSlow:
		return "slow"
	case StatusSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ParseStatus converts a status name produced by String back to a Status.
func ParseStatus(name string) (Status, error) {
	for s := StatusHealthy; s <= StatusSkipped; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("watchdog: unknown status %q", name)
}

// MarshalText renders the status as its name, making every JSON carrier of a
// Status (reports, journal events, the /watchdog endpoint) share one stable
// wire representation.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a status name.
func (s *Status) UnmarshalText(text []byte) error {
	v, err := ParseStatus(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Abnormal reports whether the status indicates a detected fault.
func (s Status) Abnormal() bool {
	switch s {
	case StatusError, StatusStuck, StatusCrashed, StatusSlow:
		return true
	default:
		return false
	}
}

// Site identifies a vulnerable operation inside the main program — the
// pinpoint a mimic checker reports (Table 2: mimic checkers can localize the
// failing instruction; probe checkers cannot).
type Site struct {
	// Function is the fully qualified main-program function being mimicked,
	// e.g. "kvs.(*Flusher).flushOnce".
	Function string `json:"function,omitempty"`
	// Op names the vulnerable operation, e.g. "wal.Append" or "net.Write".
	Op string `json:"op,omitempty"`
	// File and Line locate the operation in the main program's source.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// IsZero reports whether the site carries no location information.
func (s Site) IsZero() bool { return s == Site{} }

// String renders the site as function/op@file:line, omitting empty parts.
func (s Site) String() string {
	if s.IsZero() {
		return "<unknown>"
	}
	out := s.Function
	if s.Op != "" {
		if out != "" {
			out += "/"
		}
		out += s.Op
	}
	if s.File != "" {
		out += fmt.Sprintf("@%s:%d", s.File, s.Line)
	}
	return out
}

// Report is the outcome of one checker execution, delivered to listeners and
// kept in the driver's ledger.
type Report struct {
	// Checker is the name of the checker that produced this report.
	Checker string
	// Status classifies the outcome.
	Status Status
	// Err is the detected error for StatusError/StatusCrashed reports.
	Err error
	// Site pinpoints the vulnerable operation implicated in the fault; zero
	// for checkers that cannot localize (probe, most signal checkers).
	Site Site
	// Payload carries the failure-inducing context captured at hook time —
	// the arguments the mimicked operation ran with — for diagnosis and
	// reproduction (§5.2).
	Payload map[string]any
	// Latency is how long the checker ran (or the timeout, when stuck).
	Latency time.Duration
	// Time is when the checker execution finished (or timed out).
	Time time.Time
}

// reportWire is the stable JSON schema for reports, shared by the wdobs
// detection journal, the /watchdog endpoint, and wdstat. Err is flattened
// to its message and Latency is pinned to nanoseconds so the format does not
// depend on Go error types or Duration encoding details.
type reportWire struct {
	Checker   string         `json:"checker"`
	Status    Status         `json:"status"`
	Error     string         `json:"error,omitempty"`
	Site      *Site          `json:"site,omitempty"`
	Payload   map[string]any `json:"payload,omitempty"`
	LatencyNS int64          `json:"latency_ns,omitempty"`
	Time      time.Time      `json:"time"`
}

// MarshalJSON implements json.Marshaler using the stable wire schema.
func (r Report) MarshalJSON() ([]byte, error) {
	w := reportWire{
		Checker:   r.Checker,
		Status:    r.Status,
		Payload:   r.Payload,
		LatencyNS: int64(r.Latency),
		Time:      r.Time,
	}
	if r.Err != nil {
		w.Error = r.Err.Error()
	}
	if !r.Site.IsZero() {
		site := r.Site
		w.Site = &site
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler. A round-tripped Err carries the
// original message but not the original type; payload values decode as
// generic JSON kinds.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w reportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		Checker: w.Checker,
		Status:  w.Status,
		Payload: w.Payload,
		Latency: time.Duration(w.LatencyNS),
		Time:    w.Time,
	}
	if w.Error != "" {
		r.Err = errors.New(w.Error)
	}
	if w.Site != nil {
		r.Site = *w.Site
	}
	return nil
}

// String renders a compact one-line summary. The site is printed once: an
// error that already leads with it, as an *OpError's text does, is not
// followed by it again.
func (r Report) String() string {
	out := fmt.Sprintf("[%s] %s", r.Checker, r.Status)
	var msg string
	if r.Err != nil {
		msg = r.Err.Error()
		out += ": " + msg
	}
	if !r.Site.IsZero() && !strings.HasPrefix(msg, r.Site.String()) {
		out += " at " + r.Site.String()
	}
	return out
}

// Alarm is raised by the driver once a checker's abnormal reports cross its
// threshold, optionally validated by a secondary checker (§5.1: invoking
// probe checkers when mimic checkers detect faults reduces false alarms).
type Alarm struct {
	// Report is the abnormal report that crossed the threshold.
	Report Report `json:"report"`
	// Consecutive is the number of consecutive abnormal reports.
	Consecutive int `json:"consecutive"`
	// Validated is nil when no validator is configured; otherwise it points
	// to the validator's verdict (true = fault confirmed impactful).
	Validated *bool `json:"validated,omitempty"`
	// Flaps counts identical alarms the driver's damping gate suppressed
	// since the last alarm it let through for this (checker, site, status);
	// zero when no damping is configured or nothing flapped.
	Flaps int `json:"flaps,omitempty"`
}

// OpError wraps an error with the vulnerable-operation site that produced it.
// Mimic checkers return OpErrors so the driver can pinpoint failures.
type OpError struct {
	Site Site
	Err  error
}

// Error implements the error interface.
func (e *OpError) Error() string {
	return fmt.Sprintf("%s: %v", e.Site, e.Err)
}

// Unwrap returns the underlying error.
func (e *OpError) Unwrap() error { return e.Err }
