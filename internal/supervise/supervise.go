// Package supervise is the crash-restart supervisor of the production ops
// plane: the rung of the recovery ladder that sits *outside* the supervised
// process. The paper's watchdog catches partial failures and recovery repairs
// them in-process (§5.2), but the one failure mode that stack cannot survive
// is its own death — a crash, a kill, or an escalation that concludes the
// process is beyond repair (recovery.WithEscalationExit). The supervisor
// closes that gap the way real deployments do (systemd Restart=on-failure,
// the poison-pill restart loop): spawn the daemon, restart it on crash or
// watchdog-trigger exit with capped exponential backoff and seeded jitter,
// kill-and-restart it when its health probe wedges, and give up with a
// distinct error once a restart storm shows restarting is not helping.
//
// Every outage is recorded in a persistent episode ledger (see the episode
// subpackage) so the history survives both the daemon's restarts and the
// supervisor's own.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"gowatchdog/internal/supervise/episode"
)

// ExitWatchdogTrigger is the conventional exit code for "in-process recovery
// gave up; restart me" (recovery.WithEscalationExit). 70 is EX_SOFTWARE from
// sysexits(3). The supervisor restarts on it like any crash but records the
// cause as a watchdog trigger, so operators can tell self-diagnosed exits
// from plain crashes in the episode ledger.
const ExitWatchdogTrigger = 70

// waitDelay bounds how long Wait keeps draining the child's output pipes
// after the process itself has exited (grandchildren may inherit them).
const waitDelay = 500 * time.Millisecond

// EnvEpisodes is set in the child's environment to the episode-ledger path,
// so a supervised daemon can surface its own outage history on /watchdog
// (wdruntime reads it as the -episodes default).
const EnvEpisodes = "WDSUPER_EPISODES"

// Causes recorded on episode open. Signal deaths are recorded as
// "signal:<name>" and other nonzero exits as "exit:<code>".
const (
	CauseWatchdogTrigger = "watchdog-trigger"
	CauseStuck           = "stuck"
	CauseSpawnError      = "spawn-error"
)

// StormError is returned by Run when the restart-storm breaker trips: the
// child died MaxRestarts times within RestartWindow, so restarting is not
// helping and the failure must escalate past this supervisor.
type StormError struct {
	Daemon    string
	Deaths    int
	Window    time.Duration
	LastCause string
}

// Error implements error.
func (e *StormError) Error() string {
	return fmt.Sprintf("supervise: %s died %d times within %v (last cause %s); giving up",
		e.Daemon, e.Deaths, e.Window, e.LastCause)
}

// Config parameterizes one Supervisor.
type Config struct {
	// Name labels the daemon in logs and episodes (default: base name of
	// Command[0]).
	Name string
	// Command is the child argv; Command[0] is the executable.
	Command []string
	// Env entries are appended to the inherited environment. The ledger path
	// is additionally exported as WDSUPER_EPISODES when a Ledger is set.
	Env []string
	// Stdout/Stderr receive the child's output (default: inherited).
	Stdout, Stderr io.Writer

	// BackoffBase is the first restart delay (default 200ms); successive
	// deaths double it up to BackoffCap (default 10s). A child that reaches
	// health resets the ladder.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterFrac spreads each delay by ±frac (default 0.2; negative
	// disables). JitterSeed makes the spread reproducible (default 1).
	JitterFrac float64
	JitterSeed int64

	// MaxRestarts is the storm-breaker threshold: give up once the child has
	// died this many times within RestartWindow (default 5 within 1 minute).
	MaxRestarts   int
	RestartWindow time.Duration

	// HealthProbe, when set, is polled every ProbeEvery (default 1s); nil
	// means healthy. A child whose probe has not succeeded for StuckAfter
	// (default 10×ProbeEvery) is declared stuck, SIGKILLed, and restarted —
	// the restart-on-stuck control loop that catches hangs no exit status
	// ever reports.
	HealthProbe func() error
	ProbeEvery  time.Duration
	StuckAfter  time.Duration
	// StableAfter is the probe-free health criterion: without a HealthProbe,
	// a child that stays alive this long is considered back in service
	// (default 5s).
	StableAfter time.Duration

	// TermGrace bounds a graceful stop: SIGTERM, wait this long, SIGKILL
	// (default 5s).
	TermGrace time.Duration

	// Trigger, when set, delivers externally-diagnosed failure causes — e.g.
	// a WATCHDOG=trigger datagram from the child's own escalation ladder.
	// Each receive kills the current child immediately and opens an episode
	// with the received cause (empty string means "watchdog-trigger").
	Trigger <-chan string
	// OnSpawn is called with each new child's pid; notify listeners use it
	// to reset per-child feed state so a dead child's feeds cannot vouch for
	// its replacement.
	OnSpawn func(pid int)

	// Ledger, when set, records outage episodes. The supervisor adopts any
	// episode a previous run left open and closes it on the next health.
	Ledger *episode.Ledger
	// Logf receives supervisor log lines (default: discarded).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Command) == 0 {
		return c, errors.New("supervise: empty command")
	}
	if c.Name == "" {
		c.Name = filepath.Base(c.Command[0])
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 10 * time.Second
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	if c.RestartWindow <= 0 {
		c.RestartWindow = time.Minute
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = time.Second
	}
	if c.StuckAfter <= 0 {
		c.StuckAfter = 10 * c.ProbeEvery
	}
	if c.StableAfter <= 0 {
		c.StableAfter = 5 * time.Second
	}
	if c.TermGrace <= 0 {
		c.TermGrace = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Supervisor runs one daemon under crash-restart supervision. Construct with
// New, drive with Run; Pid is safe to read concurrently (fault campaigns use
// it to aim signals at the current child).
type Supervisor struct {
	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand

	mu  sync.Mutex
	pid int
}

// New validates cfg and returns a Supervisor.
func New(cfg Config) (*Supervisor, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Supervisor{cfg: cfg, rng: rand.New(rand.NewSource(cfg.JitterSeed))}, nil
}

// Pid returns the current child's pid (0 before the first spawn).
func (s *Supervisor) Pid() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pid
}

// childOutcome describes why one child stopped running.
type childOutcome struct {
	cause string // "" for a clean exit(0)
}

// Run supervises the daemon until it exits cleanly (returns nil), the
// context is cancelled (child is terminated gracefully; returns nil), or the
// restart-storm breaker trips (returns *StormError). Any other error is an
// unrecoverable supervisor fault (e.g. the episode ledger failing).
func (s *Supervisor) Run(ctx context.Context) error {
	var (
		openID    int64 = -1
		deaths    []time.Time
		backoffN  int
		lastCause string
	)
	if l := s.cfg.Ledger; l != nil {
		if e := l.OpenFor(s.cfg.Name); e != nil {
			openID = e.ID
			s.cfg.Logf("supervise: adopted open episode %d (%s, opened %s)",
				e.ID, e.Cause, e.OpenedAt.Format(time.RFC3339))
		}
	}

	for {
		if ctx.Err() != nil {
			return nil
		}
		outcome, healthy, err := s.superviseOne(ctx, &openID, backoffN > 0 || openID >= 0)
		if err != nil {
			return err
		}
		if healthy {
			backoffN = 0
		}
		if ctx.Err() != nil {
			return nil
		}
		if outcome.cause == "" {
			// Clean exit: supervision is complete. A still-open episode means
			// the daemon chose to stop before ever reaching health; close it
			// so the ledger never dangles.
			if openID >= 0 {
				_ = s.closeEpisode(openID, episode.ResolutionHealthy, 0)
			}
			s.cfg.Logf("supervise: %s exited cleanly", s.cfg.Name)
			return nil
		}
		lastCause = outcome.cause

		now := time.Now()
		recent := deaths[:0]
		for _, t := range deaths {
			if now.Sub(t) <= s.cfg.RestartWindow {
				recent = append(recent, t)
			}
		}
		deaths = append(recent, now)

		if openID < 0 && s.cfg.Ledger != nil {
			id, err := s.cfg.Ledger.OpenEpisode(s.cfg.Name, outcome.cause, now)
			if err != nil {
				return fmt.Errorf("supervise: ledger: %w", err)
			}
			openID = id
		}
		s.cfg.Logf("supervise: %s down (%s), death %d/%d in window",
			s.cfg.Name, outcome.cause, len(deaths), s.cfg.MaxRestarts)

		if len(deaths) >= s.cfg.MaxRestarts {
			if openID >= 0 {
				_ = s.closeEpisode(openID, episode.ResolutionGaveUp, 0)
			}
			return &StormError{
				Daemon: s.cfg.Name, Deaths: len(deaths),
				Window: s.cfg.RestartWindow, LastCause: lastCause,
			}
		}

		delay := s.backoff(backoffN)
		backoffN++
		s.cfg.Logf("supervise: restarting %s in %v", s.cfg.Name, delay.Round(time.Millisecond))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil
		}
	}
}

// superviseOne runs a single child to completion: spawn, watch health, wait
// for death (or kill on stuck / context cancel). It closes the open episode
// the moment the child reaches health. isRestart marks spawns that follow a
// death or adoption, for the episode restart count.
func (s *Supervisor) superviseOne(ctx context.Context, openID *int64, isRestart bool) (childOutcome, bool, error) {
	cmd := exec.Command(s.cfg.Command[0], s.cfg.Command[1:]...)
	// Children get their own process group so restarts can signal the whole
	// tree, and WaitDelay bounds the pipe drain after death — a grandchild
	// holding the stdout pipe must not hide the daemon's own exit from the
	// supervisor.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = waitDelay
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	if s.cfg.Ledger != nil {
		cmd.Env = append(cmd.Env, EnvEpisodes+"="+s.cfg.Ledger.Path())
	}
	if cmd.Stdout = s.cfg.Stdout; cmd.Stdout == nil {
		cmd.Stdout = os.Stdout
	}
	if cmd.Stderr = s.cfg.Stderr; cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		s.cfg.Logf("supervise: spawn %s: %v", s.cfg.Name, err)
		return childOutcome{cause: CauseSpawnError}, false, nil
	}
	spawnedAt := time.Now()
	s.mu.Lock()
	s.pid = cmd.Process.Pid
	s.mu.Unlock()
	s.cfg.Logf("supervise: %s up (pid %d)", s.cfg.Name, cmd.Process.Pid)
	if s.cfg.OnSpawn != nil {
		s.cfg.OnSpawn(cmd.Process.Pid)
	}
	if isRestart && *openID >= 0 && s.cfg.Ledger != nil {
		_ = s.cfg.Ledger.Restart(*openID, spawnedAt)
	}

	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	trigger := s.cfg.Trigger

	var probeC <-chan time.Time
	var stableC <-chan time.Time
	if s.cfg.HealthProbe != nil {
		t := time.NewTicker(s.cfg.ProbeEvery)
		defer t.Stop()
		probeC = t.C
	} else {
		stableC = time.After(s.cfg.StableAfter)
	}

	var (
		lastOK  = spawnedAt
		healthy bool
		pending string // cause of a kill we initiated (stuck / trigger)
	)
	markHealthy := func() error {
		healthy = true
		if *openID >= 0 && s.cfg.Ledger != nil {
			if err := s.closeEpisode(*openID, episode.ResolutionHealthy, time.Since(spawnedAt)); err != nil {
				return err
			}
			*openID = -1
		}
		return nil
	}
	// putDown opens the episode (the outage began at the diagnosis, not when
	// the kill lands) and kills the child; the exit then surfaces on waitCh.
	putDown := func(cause string, at time.Time) error {
		pending = cause
		if *openID < 0 && s.cfg.Ledger != nil {
			id, err := s.cfg.Ledger.OpenEpisode(s.cfg.Name, cause, at)
			if err != nil {
				return fmt.Errorf("supervise: ledger: %w", err)
			}
			*openID = id
		}
		signalGroup(cmd, syscall.SIGKILL)
		return nil
	}

	for {
		select {
		case <-ctx.Done():
			s.terminate(cmd, waitCh)
			return childOutcome{}, healthy, nil

		case err := <-waitCh:
			return childOutcome{cause: s.classify(err, pending)}, healthy, nil

		case cause, ok := <-trigger:
			// Externally-diagnosed failure (e.g. a WATCHDOG=trigger datagram):
			// restart immediately, recording the reported cause.
			if !ok {
				trigger = nil // closed channel: stop selecting on it
				continue
			}
			if pending != "" {
				continue
			}
			if cause == "" {
				cause = CauseWatchdogTrigger
			}
			s.cfg.Logf("supervise: %s trigger (%s); killing pid %d", s.cfg.Name, cause, cmd.Process.Pid)
			if err := putDown(cause, time.Now()); err != nil {
				return childOutcome{}, healthy, err
			}

		case <-stableC:
			// No probe configured: surviving StableAfter is the health signal.
			if err := markHealthy(); err != nil {
				return childOutcome{}, healthy, err
			}
			stableC = nil

		case now := <-probeC:
			if pending != "" {
				continue // already killed; just waiting for the exit status
			}
			if err := s.cfg.HealthProbe(); err == nil {
				lastOK = now
				if !healthy {
					if err := markHealthy(); err != nil {
						return childOutcome{}, healthy, err
					}
				}
			} else if now.Sub(lastOK) > s.cfg.StuckAfter {
				// The probe has been failing too long: the child is wedged in
				// a way no exit status will ever report.
				s.cfg.Logf("supervise: %s stuck (probe failing %v, last: %v); killing pid %d",
					s.cfg.Name, now.Sub(lastOK).Round(time.Millisecond), err, cmd.Process.Pid)
				if err := putDown(CauseStuck, now); err != nil {
					return childOutcome{}, healthy, err
				}
			}
		}
	}
}

// terminate stops the child gracefully: SIGCONT (in case it is stopped) +
// SIGTERM, then SIGKILL after TermGrace.
func (s *Supervisor) terminate(cmd *exec.Cmd, waitCh <-chan error) {
	signalGroup(cmd, syscall.SIGCONT)
	signalGroup(cmd, syscall.SIGTERM)
	select {
	case <-waitCh:
	case <-time.After(s.cfg.TermGrace):
		signalGroup(cmd, syscall.SIGKILL)
		<-waitCh
	}
}

// signalGroup signals the child's whole process group (it was started with
// Setpgid), falling back to the process itself.
func signalGroup(cmd *exec.Cmd, sig syscall.Signal) {
	if cmd.Process == nil {
		return
	}
	if err := syscall.Kill(-cmd.Process.Pid, sig); err != nil {
		_ = cmd.Process.Signal(sig)
	}
}

// classify maps a Wait error onto an episode cause. An empty cause means a
// deliberate, successful exit; a non-empty pending cause (a kill this
// supervisor initiated) wins over the raw exit status.
func (s *Supervisor) classify(err error, pending string) string {
	if pending != "" {
		return pending
	}
	if err == nil || errors.Is(err, exec.ErrWaitDelay) {
		// ErrWaitDelay means the process exited cleanly but a grandchild kept
		// the output pipe open past WaitDelay — still a clean exit.
		return ""
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if status, ok := ee.Sys().(syscall.WaitStatus); ok && status.Signaled() {
			return "signal:" + status.Signal().String()
		}
		if ee.ExitCode() == ExitWatchdogTrigger {
			return CauseWatchdogTrigger
		}
		return fmt.Sprintf("exit:%d", ee.ExitCode())
	}
	return CauseSpawnError
}

// closeEpisode closes id, logging rather than failing on the (benign) case
// where an adopted episode was already closed by a racing reader.
func (s *Supervisor) closeEpisode(id int64, resolution string, healthyDelay time.Duration) error {
	if s.cfg.Ledger == nil {
		return nil
	}
	if err := s.cfg.Ledger.CloseEpisode(id, resolution, time.Now(), healthyDelay); err != nil {
		return fmt.Errorf("supervise: ledger: %w", err)
	}
	s.cfg.Logf("supervise: episode %d closed (%s)", id, resolution)
	return nil
}

// backoff returns the nth restart delay: base·2ⁿ capped at BackoffCap, with
// ±JitterFrac seeded jitter so a fleet of supervisors does not thunder.
func (s *Supervisor) backoff(n int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 0; i < n && d < s.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	if s.cfg.JitterFrac > 0 {
		s.rngMu.Lock()
		f := 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
		s.rngMu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
