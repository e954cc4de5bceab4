package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"gowatchdog/internal/supervise"
	"gowatchdog/internal/supervise/episode"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

// EnvSuperChild selects the re-exec child mode for the super campaign. The
// campaign has to SIGKILL and SIGSTOP real processes, so the daemon under
// supervision is the invoking binary itself, re-executed with this variable
// set ("serve" = a feeding wdruntime daemon, "crash" = exit 1 immediately).
const EnvSuperChild = "WDCHAOS_SUPER_CHILD"

// MaybeSuperChild turns the current process into a super-campaign child when
// EnvSuperChild is set; it never returns in that case. Call it first thing in
// main() (and in TestMain) of any binary used as a SuperConfig.ChildCommand.
func MaybeSuperChild() {
	switch os.Getenv(EnvSuperChild) {
	case "":
		return
	case "crash":
		os.Exit(1)
	case "serve":
		superServe()
	default:
		os.Exit(2)
	}
}

// superServe is the "serve" child: a real wdruntime daemon with one healthy
// checker, feeding sd_notify from the intrinsic verdict until SIGTERM.
func superServe() {
	rt, err := wdruntime.New(
		wdruntime.WithInterval(20*time.Millisecond),
		wdruntime.WithSdNotify(),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "super child: %v\n", err)
		os.Exit(1)
	}
	rt.Driver().Register(
		watchdog.NewChecker("serve", func(*watchdog.Context) error { return nil }),
		watchdog.WithContext(readyContext()),
	)
	if err := rt.Start(nil); err != nil {
		fmt.Fprintf(os.Stderr, "super child: %v\n", err)
		os.Exit(1)
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	<-ch
	_ = rt.Drain()
	_ = rt.Close()
	os.Exit(0)
}

// SuperConfig parameterizes one supervision campaign (RunSuper).
type SuperConfig struct {
	// Seed drives restart-backoff jitter and the inter-outage schedule.
	Seed int64
	// ChildCommand re-executes a binary whose main calls MaybeSuperChild;
	// the campaign selects the child behavior via EnvSuperChild.
	ChildCommand []string
	// Outages is the number of SIGKILL rounds (default 2). One SIGSTOP hang
	// round and one adoption round always follow.
	Outages int
	// Dir is the scratch directory for the ledger and notify socket
	// (default: a fresh temp dir).
	Dir string
}

// Supervision campaign timing.
const (
	// superFeedWindow is the sd_notify watchdog window the supervisor arms;
	// the child feeds at a third of it.
	superFeedWindow = 300 * time.Millisecond
	// superProbeEvery and superStuckAfter tune stuck detection on the
	// supervisor's probe loop.
	superProbeEvery = 20 * time.Millisecond
	superStuckAfter = 2 * superFeedWindow
	// superTermGrace bounds graceful termination.
	superTermGrace = 2 * time.Second
	// superStormRestarts is the storm-phase breaker threshold.
	superStormRestarts = 3
)

// SuperOutage is one induced outage and its measured recovery.
type SuperOutage struct {
	// Kind is "sigkill", "sigstop", or "adoption".
	Kind string `json:"kind"`
	// RestartNS is induced-fault to replacement-spawn latency; HealthyNS is
	// induced-fault to the replacement's first accepted sd_notify feed.
	RestartNS int64 `json:"restart_ns"`
	HealthyNS int64 `json:"healthy_ns"`
}

// SuperVerdict is the machine-readable supervision-campaign outcome; CI gates
// on Pass.
type SuperVerdict struct {
	Substrate    string `json:"substrate"`
	Seed         int64  `json:"seed"`
	FeedWindowNS int64  `json:"feed_window_ns"`

	// Outages lists every induced outage with its recovery latencies.
	Outages      []SuperOutage `json:"outages"`
	RestartP50NS int64         `json:"restart_p50_ns,omitempty"`
	RestartMaxNS int64         `json:"restart_max_ns,omitempty"`
	HealthyP50NS int64         `json:"healthy_p50_ns,omitempty"`
	HealthyMaxNS int64         `json:"healthy_max_ns,omitempty"`

	// AdoptedClosed reports whether the episode left open by the killed
	// supervisor was adopted and closed healthy by its successor.
	AdoptedClosed bool `json:"adopted_closed"`

	// StormBreaker reports whether the crash-loop supervisor gave up at the
	// breaker threshold; StormDeaths is its death count when it did.
	StormBreaker bool `json:"storm_breaker"`
	StormDeaths  int  `json:"storm_deaths"`

	// Ledger consistency: every induced outage must map to exactly one
	// closed episode, with no torn records.
	LedgerEpisodes   int  `json:"ledger_episodes"`
	LedgerOpen       int  `json:"ledger_open"`
	TornRecords      int  `json:"torn_records"`
	LedgerConsistent bool `json:"ledger_consistent"`

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// spawnEvent records one child spawn as observed via Config.OnSpawn.
type spawnEvent struct {
	pid int
	at  time.Time
}

// RunSuper executes the seeded supervision campaign against a real daemon
// process under a real Supervisor. Phases:
//
//  1. warmup — spawn the serve child, wait for its first accepted feed
//  2. SIGKILL outages — kill the child mid-feed; score time-to-restart and
//     time-to-healthy per round
//  3. SIGSTOP hang — stop the child so feeds cease; the supervisor must
//     diagnose it stuck, kill the group, and respawn
//  4. adoption — kill the child, then cancel the supervisor while the
//     episode is open; a successor supervisor must adopt and close it
//  5. crash-loop storm — a child that exits immediately must trip the
//     restart-storm breaker and close its episode gave-up
func RunSuper(cfg SuperConfig) (*SuperVerdict, error) {
	if len(cfg.ChildCommand) == 0 {
		return nil, errors.New("campaign: super: empty ChildCommand")
	}
	if cfg.Outages <= 0 {
		cfg.Outages = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "wdchaos-super-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	v := &SuperVerdict{
		Substrate:    "super",
		Seed:         cfg.Seed,
		FeedWindowNS: int64(superFeedWindow),
	}

	ledgerPath := filepath.Join(dir, "episodes.jsonl")
	ledger, err := episode.Open(ledgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger.CloseFile()

	listener, err := supervise.ListenNotify(dir, superFeedWindow)
	if err != nil {
		return nil, err
	}
	defer listener.Close()

	spawns := make(chan spawnEvent, 64)
	superCfg := supervise.Config{
		Name:    "superd",
		Command: cfg.ChildCommand,
		Env:     append(listener.Env(), EnvSuperChild+"=serve"),
		// Induced outages must never trip the breaker in the serve phases.
		MaxRestarts:   cfg.Outages + 10,
		RestartWindow: time.Minute,
		// The backoff also bounds the open-episode window the adoption phase
		// must observe before taking the supervisor down; keep it comfortably
		// above the ledger poll cadence.
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  200 * time.Millisecond,
		JitterSeed:  cfg.Seed,
		HealthProbe: listener.Probe,
		ProbeEvery:  superProbeEvery,
		StuckAfter:  superStuckAfter,
		TermGrace:   superTermGrace,
		Trigger:     listener.Trigger(),
		Ledger:      ledger,
		OnSpawn: func(pid int) {
			listener.Reset(pid)
			spawns <- spawnEvent{pid: pid, at: time.Now()}
		},
	}

	sup, err := supervise.New(superCfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()
	stopSuper := stopOnce(cancel, runDone, "supervisor")
	defer stopSuper() //nolint:errcheck — re-checked on every success path

	// Phase 1: warmup. The first spawn and the first accepted feed arm the
	// campaign clock.
	if _, err := waitSpawn(spawns, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: warmup: %w", err)
	}
	if err := waitHealthy(listener, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: warmup: %w", err)
	}

	induce := func(kind string, fault func(pid int) error) error {
		// A seeded settle gap decorrelates the outage from the feed phase.
		time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
		pid := sup.Pid()
		start := time.Now()
		if err := fault(pid); err != nil {
			return fmt.Errorf("campaign: super: %s pid %d: %w", kind, pid, err)
		}
		ev, err := waitSpawn(spawns, 15*time.Second)
		if err != nil {
			return fmt.Errorf("campaign: super: %s: no respawn: %w", kind, err)
		}
		if err := waitHealthy(listener, 15*time.Second); err != nil {
			return fmt.Errorf("campaign: super: %s: replacement not healthy: %w", kind, err)
		}
		v.Outages = append(v.Outages, SuperOutage{
			Kind:      kind,
			RestartNS: int64(ev.at.Sub(start)),
			HealthyNS: int64(time.Since(start)),
		})
		return nil
	}

	// Phase 2: SIGKILL outages.
	for i := 0; i < cfg.Outages; i++ {
		if err := induce("sigkill", func(pid int) error {
			return syscall.Kill(pid, syscall.SIGKILL)
		}); err != nil {
			return nil, err
		}
	}

	// Phase 3: SIGSTOP hang — the process stays alive but its feeds stop, so
	// only the probe/stuck path can diagnose it.
	if err := induce("sigstop", func(pid int) error {
		return syscall.Kill(pid, syscall.SIGSTOP)
	}); err != nil {
		return nil, err
	}

	// Phase 4: adoption. Kill the child, wait for the supervisor to open the
	// episode, then take the supervisor down mid-outage. A successor
	// supervisor on a freshly replayed ledger must adopt the open episode and
	// close it healthy.
	if err := waitAllClosed(ledgerPath, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: pre-adoption settle: %w", err)
	}
	adoptStart := time.Now()
	if err := syscall.Kill(sup.Pid(), syscall.SIGKILL); err != nil {
		return nil, fmt.Errorf("campaign: super: adoption kill: %w", err)
	}
	if err := waitOpenEpisode(ledgerPath, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: adoption: %w", err)
	}
	if err := stopSuper(); err != nil {
		return nil, err
	}
	drainSpawns(spawns)

	// The successor replays the ledger from disk, the same way a restarted
	// wdsuper process would; the replay is what marks the episode adopted.
	if err := ledger.CloseFile(); err != nil {
		return nil, err
	}
	ledger2, err := episode.Open(ledgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger2.CloseFile()
	superCfg.Ledger = ledger2

	sup2, err := supervise.New(superCfg)
	if err != nil {
		return nil, err
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	runDone2 := make(chan error, 1)
	go func() { runDone2 <- sup2.Run(ctx2) }()
	stopSuper2 := stopOnce(cancel2, runDone2, "successor supervisor")
	defer stopSuper2() //nolint:errcheck — re-checked below

	ev, err := waitSpawn(spawns, 15*time.Second)
	if err != nil {
		return nil, fmt.Errorf("campaign: super: adoption respawn: %w", err)
	}
	if err := waitHealthy(listener, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: adoption health: %w", err)
	}
	v.Outages = append(v.Outages, SuperOutage{
		Kind:      "adoption",
		RestartNS: int64(ev.at.Sub(adoptStart)),
		HealthyNS: int64(time.Since(adoptStart)),
	})
	// The close record lands right after the successful probe; give the
	// ledger a beat before tearing the successor down.
	if err := waitAllClosed(ledgerPath, 15*time.Second); err != nil {
		return nil, fmt.Errorf("campaign: super: adoption close: %w", err)
	}
	if err := stopSuper2(); err != nil {
		return nil, err
	}

	// Phase 5: crash-loop storm on a child that exits 1 immediately. The
	// crash child never feeds, so the sd_notify wiring comes off: death
	// detection alone must drive the breaker.
	stormCfg := superCfg
	stormCfg.Name = "crashd"
	stormCfg.Env = []string{EnvSuperChild + "=crash"}
	stormCfg.MaxRestarts = superStormRestarts
	stormCfg.HealthProbe = nil
	stormCfg.Trigger = nil
	stormCfg.OnSpawn = nil
	storm, err := supervise.New(stormCfg)
	if err != nil {
		return nil, err
	}
	stormCtx, stormCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer stormCancel()
	stormErr := storm.Run(stormCtx)
	var se *supervise.StormError
	if errors.As(stormErr, &se) {
		v.StormBreaker = true
		v.StormDeaths = se.Deaths
	}

	// Score the ledger: one closed episode per induced outage plus the storm
	// give-up, no torn records, nothing left open.
	eps, torn, err := episode.Read(ledgerPath)
	if err != nil {
		return nil, err
	}
	v.LedgerEpisodes = len(eps)
	v.TornRecords = torn
	var adopted, gaveUp int
	for _, e := range eps {
		if !e.Closed {
			v.LedgerOpen++
			continue
		}
		if e.Adopted {
			adopted++
		}
		if e.Resolution == episode.ResolutionGaveUp {
			gaveUp++
		}
	}
	wantEpisodes := len(v.Outages) + 1 // + the storm's gave-up episode
	v.LedgerConsistent = v.LedgerEpisodes == wantEpisodes &&
		v.LedgerOpen == 0 && v.TornRecords == 0 && adopted == 1 && gaveUp == 1

	var restarts, healthies []int64
	for _, o := range v.Outages {
		restarts = append(restarts, o.RestartNS)
		healthies = append(healthies, o.HealthyNS)
	}
	v.RestartP50NS, v.RestartMaxNS = p50max(restarts)
	v.HealthyP50NS, v.HealthyMaxNS = p50max(healthies)

	if got := len(v.Outages); got != cfg.Outages+2 {
		v.Failures = append(v.Failures,
			fmt.Sprintf("induced %d outage(s), recovered from %d", cfg.Outages+2, got))
	}
	if !v.AdoptedClosedOK(eps) {
		v.Failures = append(v.Failures,
			"the episode left open across the supervisor restart was not adopted and closed healthy")
	} else {
		v.AdoptedClosed = true
	}
	if !v.StormBreaker {
		v.Failures = append(v.Failures,
			fmt.Sprintf("crash-loop did not trip the restart-storm breaker (err=%v)", stormErr))
	} else if v.StormDeaths != superStormRestarts {
		v.Failures = append(v.Failures,
			fmt.Sprintf("storm breaker tripped at %d death(s), want %d", v.StormDeaths, superStormRestarts))
	}
	if !v.LedgerConsistent {
		v.Failures = append(v.Failures, fmt.Sprintf(
			"ledger inconsistent: %d episode(s) want %d, %d open, %d torn, %d adopted, %d gave-up",
			v.LedgerEpisodes, wantEpisodes, v.LedgerOpen, v.TornRecords, adopted, gaveUp))
	}
	v.Pass = len(v.Failures) == 0
	return v, nil
}

// AdoptedClosedOK reports whether exactly one episode was adopted and that it
// closed healthy.
func (v *SuperVerdict) AdoptedClosedOK(eps []episode.Episode) bool {
	for _, e := range eps {
		if e.Adopted && e.Closed && e.Resolution == episode.ResolutionHealthy {
			return true
		}
	}
	return false
}

// stopOnce wraps a supervisor teardown so the deferred safety call after an
// explicit stop returns the remembered result instead of blocking on the
// already-drained done channel.
func stopOnce(cancel context.CancelFunc, done <-chan error, what string) func() error {
	var (
		stopped bool
		result  error
	)
	return func() error {
		if stopped {
			return result
		}
		stopped = true
		cancel()
		select {
		case result = <-done:
		case <-time.After(30 * time.Second):
			result = fmt.Errorf("campaign: super: %s did not stop", what)
		}
		return result
	}
}

// waitSpawn waits for the next OnSpawn event.
func waitSpawn(ch <-chan spawnEvent, timeout time.Duration) (spawnEvent, error) {
	select {
	case ev := <-ch:
		return ev, nil
	case <-time.After(timeout):
		return spawnEvent{}, errors.New("timed out waiting for a spawn")
	}
}

// drainSpawns empties queued spawn events between phases.
func drainSpawns(ch <-chan spawnEvent) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// waitHealthy polls the notify listener until the child's feeds are current.
func waitHealthy(nl *supervise.NotifyListener, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if nl.Probe() == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("timed out waiting for a healthy feed")
}

// waitOpenEpisode polls the ledger file until an episode is open.
func waitOpenEpisode(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		eps, _, err := episode.Read(path)
		if err == nil {
			for _, e := range eps {
				if !e.Closed {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out waiting for an open episode")
}

// waitAllClosed polls the ledger file until no episode is open.
func waitAllClosed(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		eps, _, err := episode.Read(path)
		if err == nil {
			open := 0
			for _, e := range eps {
				if !e.Closed {
					open++
				}
			}
			if open == 0 {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("timed out waiting for every episode to close")
}

// p50max summarizes a latency list.
func p50max(ns []int64) (p50, max int64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// JSON renders the verdict for CI consumption.
func (v *SuperVerdict) JSON() ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// Render formats the verdict for humans.
func (v *SuperVerdict) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign super seed=%d feed-window=%s outages=%d\n",
		v.Seed, time.Duration(v.FeedWindowNS), len(v.Outages))
	for _, o := range v.Outages {
		fmt.Fprintf(&b, "  %-8s restart=%s healthy=%s\n", o.Kind,
			time.Duration(o.RestartNS).Round(time.Millisecond),
			time.Duration(o.HealthyNS).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  restart p50=%s max=%s; healthy p50=%s max=%s\n",
		time.Duration(v.RestartP50NS).Round(time.Millisecond),
		time.Duration(v.RestartMaxNS).Round(time.Millisecond),
		time.Duration(v.HealthyP50NS).Round(time.Millisecond),
		time.Duration(v.HealthyMaxNS).Round(time.Millisecond))
	fmt.Fprintf(&b, "  adoption closed across supervisor restart: %v\n", v.AdoptedClosed)
	fmt.Fprintf(&b, "  storm breaker: %v (deaths=%d)\n", v.StormBreaker, v.StormDeaths)
	fmt.Fprintf(&b, "  ledger: %d episode(s), %d open, %d torn — consistent %v\n",
		v.LedgerEpisodes, v.LedgerOpen, v.TornRecords, v.LedgerConsistent)
	if v.Pass {
		b.WriteString("  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(v.Failures, "; "))
	}
	return b.String()
}
