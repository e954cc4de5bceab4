// Package episode is the persistent outage-episode ledger of the supervision
// plane: a durable, queryable record of every period a supervised daemon was
// down, surviving the very restarts that resolve it.
//
// An episode opens when the supervisor observes the daemon leave service
// (crash, kill signal, watchdog-trigger exit, or a stuck health probe) and
// closes when a replacement instance is healthy again — or when the
// restart-storm breaker gives up. Respawns that die before health close
// nothing; they increment the open episode's restart count, so one outage is
// one episode no matter how many attempts it took.
//
// Episode state machine:
//
//	       daemon leaves service
//	(none) ────────────────────────▶ open ──┐ respawn dies before healthy
//	                                   ▲    │ (restart record, count++)
//	                                   └────┘
//	     open ── replacement healthy ─────▶ closed (resolution "healthy")
//	     open ── storm breaker trips ─────▶ closed (resolution "gave-up")
//
// Persistence is an append-only JSONL file of open/restart/close records.
// On Open the ledger replays the file; episodes with no close record are
// *adopted* — they stay open in memory and the new supervisor closes them
// once it has the daemon healthy, so an outage that outlives the supervisor
// itself is still recorded as exactly one open/close pair.
package episode

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Record kinds in the JSONL ledger.
const (
	KindOpen    = "open"
	KindRestart = "restart"
	KindClose   = "close"
)

// Close resolutions.
const (
	ResolutionHealthy = "healthy" // a replacement instance reached health
	ResolutionGaveUp  = "gave-up" // the restart-storm breaker tripped
)

// Record is one JSONL ledger line. Durations are pinned to nanosecond
// integers so the on-disk schema is stable across Go versions.
type Record struct {
	Kind   string    `json:"kind"`
	ID     int64     `json:"id"`
	Daemon string    `json:"daemon"`
	Time   time.Time `json:"time"`
	// Cause classifies why the episode opened (open records): "crash",
	// "signal:killed", "watchdog-trigger", "stuck", ...
	Cause string `json:"cause,omitempty"`
	// Restarts is the total respawns during the episode (close records).
	Restarts int `json:"restarts,omitempty"`
	// Resolution says how the episode ended (close records).
	Resolution string `json:"resolution,omitempty"`
	// OutageNS is open→close (close records); HealthyNS is the last
	// respawn→healthy recovery time (close records with a healthy probe).
	OutageNS  int64 `json:"outage_ns,omitempty"`
	HealthyNS int64 `json:"healthy_ns,omitempty"`
	// Adopted marks a close written by a different supervisor run than the
	// one that opened the episode.
	Adopted bool `json:"adopted,omitempty"`
}

// Episode is the assembled view of one outage.
type Episode struct {
	ID       int64     `json:"id"`
	Daemon   string    `json:"daemon"`
	Cause    string    `json:"cause"`
	OpenedAt time.Time `json:"opened_at"`
	Restarts int       `json:"restarts"`
	Closed   bool      `json:"closed"`
	ClosedAt time.Time `json:"closed_at"`
	// Resolution, Outage, and Healthy are meaningful once Closed.
	Resolution string `json:"resolution,omitempty"`
	OutageNS   int64  `json:"outage_ns,omitempty"`
	HealthyNS  int64  `json:"healthy_ns,omitempty"`
	Adopted    bool   `json:"adopted,omitempty"`
}

// Ledger is the writing side, owned by one supervisor at a time. All methods
// are safe for concurrent use. Appends are flushed per record — an episode
// boundary that only exists in a buffer would not survive the crashes this
// ledger exists to record.
type Ledger struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	nextID  int64
	open    map[int64]*Episode
	adopted map[int64]bool // IDs opened by an earlier supervisor run
}

// Open replays the ledger at path (creating it if absent) and returns it
// ready for appends. Unclosed episodes are adopted: they stay open and the
// caller is expected to close them once the daemon is back in service.
func Open(path string) (*Ledger, error) {
	l := &Ledger{
		path:    path,
		open:    make(map[int64]*Episode),
		adopted: make(map[int64]bool),
	}
	records, _, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var replayed []*Episode
	replayed, l.open = assemble(records)
	for id := range l.open {
		l.adopted[id] = true
	}
	for _, e := range replayed {
		if e.ID >= l.nextID {
			l.nextID = e.ID + 1
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("episode: open ledger: %w", err)
	}
	l.f = f
	return l, nil
}

// Path returns the ledger file path.
func (l *Ledger) Path() string {
	return l.path
}

// CloseFile releases the ledger file. Open episodes stay open on disk — that
// is the point: the next supervisor adopts them.
func (l *Ledger) CloseFile() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// OpenEpisode records the start of an outage and returns its ID.
func (l *Ledger) OpenEpisode(daemon, cause string, at time.Time) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	e := &Episode{ID: id, Daemon: daemon, Cause: cause, OpenedAt: at}
	l.open[id] = e
	return id, l.append(Record{Kind: KindOpen, ID: id, Daemon: daemon, Cause: cause, Time: at})
}

// Restart records one respawn attempt during an open episode.
func (l *Ledger) Restart(id int64, at time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.open[id]
	if !ok {
		return fmt.Errorf("episode: restart on unknown or closed episode %d", id)
	}
	e.Restarts++
	return l.append(Record{Kind: KindRestart, ID: id, Daemon: e.Daemon, Time: at})
}

// CloseEpisode ends an open episode. healthyDelay is the final
// respawn→healthy recovery time (0 when the close is not health-driven).
func (l *Ledger) CloseEpisode(id int64, resolution string, at time.Time, healthyDelay time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.open[id]
	if !ok {
		return fmt.Errorf("episode: close on unknown or closed episode %d", id)
	}
	delete(l.open, id)
	e.Closed = true
	e.ClosedAt = at
	e.Resolution = resolution
	e.OutageNS = int64(at.Sub(e.OpenedAt))
	e.HealthyNS = int64(healthyDelay)
	e.Adopted = l.adopted[id]
	return l.append(Record{
		Kind: KindClose, ID: id, Daemon: e.Daemon, Time: at,
		Restarts: e.Restarts, Resolution: resolution,
		OutageNS: e.OutageNS, HealthyNS: e.HealthyNS, Adopted: e.Adopted,
	})
}

// OpenFor returns the open episode for daemon, or nil. With one supervisor
// per daemon there is at most one.
func (l *Ledger) OpenFor(daemon string) *Episode {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.open {
		if e.Daemon == daemon {
			cp := *e
			return &cp
		}
	}
	return nil
}

// append writes one record and flushes it to the OS.
func (l *Ledger) append(r Record) error {
	if l.f == nil {
		return errors.New("episode: ledger file is closed")
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("episode: append: %w", err)
	}
	return l.f.Sync()
}

// Read loads the ledger at path read-only and assembles its episodes, oldest
// first. Lenient: malformed lines and a torn tail are skipped (and counted),
// since a live supervisor may be mid-append. A missing file is an empty
// history, not an error — the daemon simply has no recorded outages yet.
func Read(path string) ([]Episode, int, error) {
	records, torn, err := readRecords(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	eps, _ := assemble(records)
	out := make([]Episode, 0, len(eps))
	for _, e := range eps {
		out = append(out, *e)
	}
	return out, torn, nil
}

// readRecords parses the JSONL file leniently, counting skipped lines.
func readRecords(path string) ([]Record, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var (
		records []Record
		torn    int
	)
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			var rec Record
			if jsonErr := json.Unmarshal(line, &rec); jsonErr != nil || rec.Kind == "" {
				torn++
			} else {
				records = append(records, rec)
			}
		}
		if err == io.EOF {
			return records, torn, nil
		}
		if err != nil {
			return records, torn, err
		}
	}
}

// assemble folds records into episodes plus the still-open subset.
func assemble(records []Record) ([]*Episode, map[int64]*Episode) {
	var eps []*Episode
	open := make(map[int64]*Episode)
	byID := make(map[int64]*Episode)
	for _, r := range records {
		switch r.Kind {
		case KindOpen:
			e := &Episode{ID: r.ID, Daemon: r.Daemon, Cause: r.Cause, OpenedAt: r.Time}
			eps = append(eps, e)
			open[r.ID] = e
			byID[r.ID] = e
		case KindRestart:
			if e := open[r.ID]; e != nil {
				e.Restarts++
			}
		case KindClose:
			e := byID[r.ID]
			if e == nil || e.Closed {
				continue
			}
			delete(open, r.ID)
			e.Closed = true
			e.ClosedAt = r.Time
			e.Resolution = r.Resolution
			e.Restarts = r.Restarts
			e.OutageNS = r.OutageNS
			e.HealthyNS = r.HealthyNS
			e.Adopted = r.Adopted
		}
	}
	return eps, open
}

// Snapshot is the operator-facing summary served in the /watchdog JSON
// report and rendered by wdstat.
type Snapshot struct {
	// Total and Open count all recorded episodes and the still-open subset.
	Total int `json:"total"`
	Open  int `json:"open"`
	// Episodes holds the most recent entries, oldest first (capped).
	Episodes []Episode `json:"episodes,omitempty"`
	// TornRecords counts malformed ledger lines skipped while reading.
	TornRecords int `json:"torn_records,omitempty"`
}

// SnapshotOf summarizes eps, retaining at most max entries (0 = all).
func SnapshotOf(eps []Episode, torn, max int) *Snapshot {
	s := &Snapshot{Total: len(eps), TornRecords: torn}
	for _, e := range eps {
		if !e.Closed {
			s.Open++
		}
	}
	if max > 0 && len(eps) > max {
		eps = eps[len(eps)-max:]
	}
	s.Episodes = append(s.Episodes, eps...)
	return s
}
