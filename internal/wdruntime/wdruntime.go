// Package wdruntime is the single lifecycle layer for the watchdog stack.
//
// The paper's watchdog is one abstraction — checkers + driver + context sync
// + isolation (§3.1–§3.2) — but a deployment also carries the pieces around
// it: hardening options (circuit breakers, alarm damping, hang budget),
// observability (wdobs metrics server + JSONL detection journal), and the
// recovery manager. wdruntime composes all of them behind one Config so that
// daemons, examples, and fault campaigns wire the exact same stack instead of
// each re-assembling it by hand.
//
// Lifecycle:
//
//	created ──Start──▶ started ──Drain──▶ drained ──Close──▶ closed
//
// Start serves the observability endpoint (if configured) and begins
// scheduling checks; a cancelled Start context stops scheduling early.
// Drain stops scheduling and waits — within the drain budget — for hung
// checker goroutines to be reaped. Close drains, then syncs and closes the
// journal file, then shuts the observability server down, and finally waits
// for in-flight recovery retries: journal before obs so the last detection
// events hit disk while the server still answers /healthz, recovery last so
// every retry it spawned has a live stack to act on.
package wdruntime

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/gauge"
	"gowatchdog/internal/recovery"
	"gowatchdog/internal/sdnotify"
	"gowatchdog/internal/supervise/episode"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdcep"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdobs"
)

// Config is the fully-resolved runtime configuration. Build one through New's
// functional options (or BindFlags for CLI daemons, passed to New with
// FromConfig); zero values of the hardening fields leave the corresponding
// defense disabled, matching the driver's own defaults.
type Config struct {
	// Interval is the driver check interval (default 1s).
	Interval time.Duration
	// Timeout is the checker liveness timeout (default 6s).
	Timeout time.Duration
	// Breaker configures per-checker circuit breakers; Threshold 0 disables.
	Breaker watchdog.BreakerConfig
	// DampWindow suppresses duplicate alarms inside the window; 0 disables.
	DampWindow time.Duration
	// HangBudget caps leaked hung checker goroutines; 0 means unlimited.
	HangBudget int
	// JitterSeed seeds scheduling jitter (default 1, the driver default).
	JitterSeed int64

	// ObsAddr, when non-empty, serves /metrics /healthz /watchdog /debug/pprof
	// there on Start.
	ObsAddr string
	// JournalPath, when non-empty, streams the detection journal to that file
	// as JSONL (wdstat renders it).
	JournalPath string
	// Registry, when non-nil, is exported alongside the watchdog metrics.
	Registry *gauge.Registry

	// MeshPeers lists the other nodes' mesh identities; non-empty enables the
	// cluster health plane (see internal/wdmesh). Each node gossips its
	// intrinsic watchdog digest to these peers and corroborates suspicion
	// into quorum-gated cluster verdicts.
	MeshPeers []string
	// MeshAddr is this node's mesh identity and, when MeshTransport is nil,
	// the TCP listen address for the health plane. Required when MeshPeers is
	// set; ":0" picks an ephemeral port (the bound address becomes the
	// identity).
	MeshAddr string
	// MeshInterval is the gossip period (default 1s). The suspicion window
	// follows from it and the cluster size; the per-round fanout is wdmesh's
	// default (see wdmesh.Config).
	MeshInterval time.Duration
	// MeshQuorum is the corroboration threshold for cluster verdicts
	// (default 2).
	MeshQuorum int
	// MeshTransport overrides the TCP transport (campaigns and tests pass an
	// in-process wdmesh.MemNetwork endpoint).
	MeshTransport wdmesh.Transport

	// CEPRules, when non-empty, enables the temporal rule engine (see
	// internal/wdcep): journal events stream through a lock-free ring into
	// declarative rules, and firings synthesize alarms back through the
	// driver. Enabling rules forces the observability layer on — the engine
	// feeds off the detection journal.
	CEPRules []wdcep.Rule
	// CEPRulesFile, when non-empty, loads additional rules from a JSON rule
	// file (appended after CEPRules).
	CEPRulesFile string
	// CEPEvalEvery floors the time between rule-evaluation passes
	// (0 = Interval).
	CEPEvalEvery time.Duration

	// EpisodePath, when non-empty, surfaces the supervision plane's outage
	// ledger (see internal/supervise/episode) on /watchdog and /metrics. The
	// ledger is read on each snapshot — the supervisor owns the writes.
	// wdsuper exports the path to its children as $WDSUPER_EPISODES, which
	// BindFlags picks up as the -episodes default.
	EpisodePath string

	// SdNotify enables the supervisor notification client (sd_notify
	// protocol, spoken by systemd and wdsuper): READY=1 once Start is
	// serving, WATCHDOG=1 each feed interval while the intrinsic watchdog
	// verdict is healthy, STOPPING=1 exactly once when Drain begins, and
	// WATCHDOG=trigger when the recovery manager's escalation-exit rung
	// fires. The socket comes from $NOTIFY_SOCKET; when unset everything
	// no-ops, so the flag is safe to leave on outside supervision.
	SdNotify bool

	// Factory, when non-nil, is the context factory the driver resolves
	// checker contexts from (hook-instrumented systems pass theirs here).
	Factory *watchdog.Factory
	// Clock, when non-nil, replaces the real clock (campaigns pass a virtual
	// one for bit-deterministic runs).
	Clock clock.Clock
	// Recovery, when non-nil, is wired to the driver (HandleAlarm on alarms,
	// ObserveReport on reports) before any other listener, and waited on
	// during Close.
	Recovery *recovery.Manager
}

// maxEpisodesInSnapshot caps how many episode entries one /watchdog snapshot
// carries; totals still count the full ledger.
const maxEpisodesInSnapshot = 32

// defaults is the Config New starts from and BindFlags binds its flags over,
// so a flag's default and New's default are one value.
func defaults() Config {
	return Config{
		Interval:     time.Second,
		Timeout:      6 * time.Second,
		JitterSeed:   1,
		MeshInterval: time.Second,
		MeshQuorum:   2,
	}
}

// Option mutates a Config during New.
type Option func(*Config)

// FromConfig replaces the whole Config with cfg (a BindFlags result); apply
// it first so later options layer on top.
func FromConfig(cfg *Config) Option { return func(c *Config) { *c = *cfg } }

// WithInterval sets the driver check interval.
func WithInterval(d time.Duration) Option { return func(c *Config) { c.Interval = d } }

// WithTimeout sets the checker liveness timeout.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithBreaker enables per-checker circuit breakers.
func WithBreaker(cfg watchdog.BreakerConfig) Option { return func(c *Config) { c.Breaker = cfg } }

// WithAlarmDamping suppresses duplicate alarms inside the window.
func WithAlarmDamping(window time.Duration) Option {
	return func(c *Config) { c.DampWindow = window }
}

// WithHangBudget caps leaked hung checker goroutines.
func WithHangBudget(n int) Option { return func(c *Config) { c.HangBudget = n } }

// WithJitterSeed seeds scheduling (and breaker probe) jitter.
func WithJitterSeed(seed int64) Option { return func(c *Config) { c.JitterSeed = seed } }

// WithMesh enables the cluster health plane: addr is this node's mesh
// identity (and TCP listen address), peers are the other nodes.
func WithMesh(addr string, peers ...string) Option {
	return func(c *Config) {
		c.MeshAddr = addr
		c.MeshPeers = append(c.MeshPeers, peers...)
	}
}

// WithMeshInterval sets the mesh gossip period.
func WithMeshInterval(d time.Duration) Option { return func(c *Config) { c.MeshInterval = d } }

// WithMeshQuorum sets the corroboration threshold for cluster verdicts.
func WithMeshQuorum(k int) Option { return func(c *Config) { c.MeshQuorum = k } }

// WithMeshTransport replaces the TCP transport with a caller-provided one.
func WithMeshTransport(tr wdmesh.Transport) Option {
	return func(c *Config) { c.MeshTransport = tr }
}

// WithCEPRules enables the temporal rule engine with the given rules.
func WithCEPRules(rules ...wdcep.Rule) Option {
	return func(c *Config) { c.CEPRules = append(c.CEPRules, rules...) }
}

// WithCEPEvalEvery floors the time between rule-evaluation passes.
func WithCEPEvalEvery(d time.Duration) Option { return func(c *Config) { c.CEPEvalEvery = d } }

// WithSdNotify enables the sd_notify client on the $NOTIFY_SOCKET socket.
func WithSdNotify() Option { return func(c *Config) { c.SdNotify = true } }

// WithJournalPath streams the detection journal to the file as JSONL.
func WithJournalPath(path string) Option { return func(c *Config) { c.JournalPath = path } }

// WithRegistry exports the registry's gauges alongside the watchdog metrics.
func WithRegistry(r *gauge.Registry) Option { return func(c *Config) { c.Registry = r } }

// WithFactory sets the watchdog context factory.
func WithFactory(f *watchdog.Factory) Option { return func(c *Config) { c.Factory = f } }

// WithClock replaces the real clock.
func WithClock(clk clock.Clock) Option { return func(c *Config) { c.Clock = clk } }

// WithRecovery wires the manager to the driver and waits on it during Close.
func WithRecovery(m *recovery.Manager) Option { return func(c *Config) { c.Recovery = m } }

// Runtime owns one composed watchdog stack: driver, observability, journal
// file, and recovery manager, with a deterministic shutdown ordering.
type Runtime struct {
	cfg      Config
	driver   *watchdog.Driver
	obs      *wdobs.Obs
	rec      *recovery.Manager
	journalF *os.File // opened from JournalPath

	mesh       *wdmesh.Mesh
	meshAlarms atomic.Int64
	cep        *wdcep.Engine
	notifier   *sdnotify.Notifier

	mu        sync.Mutex
	started   bool
	srv       *wdobs.Server
	watchStop chan struct{}
	feedStop  chan struct{}
	feedDone  chan struct{}

	drainOnce sync.Once
	drainErr  error
	closeOnce sync.Once
	closeErr  error
}

// New resolves the options into a Config and composes the stack: driver with
// hardening options, recovery listeners (always registered first, so campaign
// or daemon listeners added afterwards observe the same ordering), and — when
// any observability field is set — a wdobs instance with an optional JSONL
// journal file. The driver is not started; register checkers first, then call
// Start.
func New(opts ...Option) (*Runtime, error) {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("wdruntime: non-positive interval %v", cfg.Interval)
	}
	if cfg.Timeout <= 0 {
		return nil, fmt.Errorf("wdruntime: non-positive timeout %v", cfg.Timeout)
	}
	if len(cfg.MeshPeers) > 0 && cfg.MeshAddr == "" {
		return nil, errors.New("wdruntime: mesh peers configured without a mesh identity (MeshAddr)")
	}

	dopts := []watchdog.Option{
		watchdog.WithInterval(cfg.Interval),
		watchdog.WithTimeout(cfg.Timeout),
		watchdog.WithJitterSeed(cfg.JitterSeed),
	}
	if cfg.Clock != nil {
		dopts = append(dopts, watchdog.WithClock(cfg.Clock))
	}
	if cfg.Factory != nil {
		dopts = append(dopts, watchdog.WithFactory(cfg.Factory))
	}
	if cfg.Breaker.Threshold > 0 {
		dopts = append(dopts, watchdog.WithBreaker(cfg.Breaker))
	}
	if cfg.DampWindow > 0 {
		dopts = append(dopts, watchdog.WithAlarmDamping(cfg.DampWindow))
	}
	if cfg.HangBudget > 0 {
		dopts = append(dopts, watchdog.WithHangBudget(cfg.HangBudget))
	}

	rt := &Runtime{cfg: cfg, driver: watchdog.New(dopts...), rec: cfg.Recovery}

	if cfg.ObsAddr != "" || cfg.JournalPath != "" ||
		len(cfg.CEPRules) > 0 || cfg.CEPRulesFile != "" {
		var oopts []wdobs.Option
		if cfg.Registry != nil {
			oopts = append(oopts, wdobs.WithRegistry(cfg.Registry))
		}
		if cfg.JournalPath != "" {
			f, err := os.Create(cfg.JournalPath)
			if err != nil {
				return nil, fmt.Errorf("wdruntime: journal: %w", err)
			}
			rt.journalF = f
			oopts = append(oopts, wdobs.WithSink(f))
		}
		rt.obs = wdobs.New(oopts...)
		rt.obs.Attach(rt.driver)
	}

	if rt.obs != nil {
		if err := rt.setupCEP(); err != nil {
			if rt.journalF != nil {
				_ = rt.journalF.Close()
			}
			return nil, err
		}
		if rt.rec != nil {
			rt.obs.SetRecovery(func() *wdobs.RecoverySnapshot {
				return &wdobs.RecoverySnapshot{
					Events:  rt.rec.TotalEvents(),
					Dropped: rt.rec.DroppedEvents(),
				}
			})
		}
		if path := cfg.EpisodePath; path != "" {
			rt.obs.SetEpisodes(func() *episode.Snapshot {
				eps, torn, err := episode.Read(path)
				if err != nil {
					return nil
				}
				return episode.SnapshotOf(eps, torn, maxEpisodesInSnapshot)
			})
		}
	}

	if cfg.SdNotify {
		rt.notifier = sdnotify.New()
	}

	if rt.rec != nil {
		if rt.obs != nil {
			// Journal recovery outcomes (KindRecovery) before the manager
			// handles any alarm, so every escalation and retry is recorded.
			rt.rec.OnEvent(rt.onRecoveryEvent)
		}
		if rt.notifier.Enabled() {
			// The escalation-exit rung logs EventExited synchronously before
			// calling its exit function, so the WATCHDOG=trigger datagram is
			// on the wire before the process dies — the supervisor restarts
			// immediately instead of waiting out the feed window.
			rt.rec.OnEvent(func(e recovery.Event) {
				if e.Kind == recovery.EventExited {
					_ = rt.notifier.Trigger()
				}
			})
		}
		rt.driver.OnAlarm(rt.rec.HandleAlarm)
		rt.driver.OnReport(rt.rec.ObserveReport)
	}
	if len(cfg.MeshPeers) > 0 {
		// The mesh digest carries a process-lifetime alarm count; tally it
		// here so the Source closure stays a cheap read.
		rt.driver.OnAlarm(func(watchdog.Alarm) { rt.meshAlarms.Add(1) })
	}
	return rt, nil
}

// Driver exposes the composed driver for checker registration and listeners.
func (rt *Runtime) Driver() *watchdog.Driver { return rt.driver }

// Obs returns the observability instance, or nil when none was configured.
func (rt *Runtime) Obs() *wdobs.Obs { return rt.obs }

// Config returns a copy of the resolved configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Mesh returns the cluster health plane, or nil before Start or when no
// mesh peers were configured.
func (rt *Runtime) Mesh() *wdmesh.Mesh {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.mesh
}

// CEP returns the temporal rule engine, or nil when no rules were configured.
func (rt *Runtime) CEP() *wdcep.Engine { return rt.cep }

// ObsAddr returns the bound observability address after Start ("" when not
// serving).
func (rt *Runtime) ObsAddr() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.srv == nil {
		return ""
	}
	return rt.srv.Addr()
}

// Start serves the observability endpoint (when configured) and begins
// scheduling checks. When ctx is cancellable, its cancellation stops the
// driver's scheduling; the rest of the teardown still belongs to Close.
func (rt *Runtime) Start(ctx context.Context) error {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return errors.New("wdruntime: Start called twice")
	}
	rt.started = true
	rt.mu.Unlock()

	if rt.obs != nil && rt.cfg.ObsAddr != "" {
		srv, err := rt.obs.Serve(rt.cfg.ObsAddr)
		if err != nil {
			return fmt.Errorf("wdruntime: obs: %w", err)
		}
		rt.mu.Lock()
		rt.srv = srv
		rt.mu.Unlock()
	}
	if len(rt.cfg.MeshPeers) > 0 {
		if err := rt.startMesh(); err != nil {
			return err
		}
	}
	rt.driver.Start()
	if m := rt.Mesh(); m != nil {
		// Gossip only once the driver schedules checks, so the first digests
		// describe a live watchdog rather than a pre-start snapshot.
		m.Start()
	}
	if rt.notifier.Enabled() {
		_ = rt.notifier.Ready()
		stop, done := make(chan struct{}), make(chan struct{})
		rt.mu.Lock()
		rt.feedStop, rt.feedDone = stop, done
		rt.mu.Unlock()
		go rt.feedLoop(stop, done)
	}
	if ctx != nil && ctx.Done() != nil {
		stop := make(chan struct{})
		rt.mu.Lock()
		rt.watchStop = stop
		rt.mu.Unlock()
		go func() {
			select {
			case <-ctx.Done():
				rt.driver.Stop()
			case <-stop:
			}
		}()
	}
	return nil
}

// feedLoop feeds the supervisor's watchdog on wall-clock cadence (external
// watchdog timers run on wall time even when the driver is on a virtual
// clock), but only while the intrinsic verdict is healthy — feed silence
// must mean "hung or failing", never "the feeder was descheduled while the
// daemon burned". On stop it sends the STOPPING=1 disarm from the same
// goroutine, so no feed can ever be ordered after the disarm.
func (rt *Runtime) feedLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(rt.notifier.FeedInterval(rt.cfg.Interval))
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if rt.driver.Healthy() {
				_ = rt.notifier.Feed()
			}
		case <-stop:
			_ = rt.notifier.Stopping()
			return
		}
	}
}

// Drain stops scheduling and waits — up to the drain budget of two liveness
// timeouts — for hung checker goroutines to be reaped, so a shutdown never
// races in-flight checks. It is idempotent; the first call's verdict is
// returned to all.
func (rt *Runtime) Drain() error {
	rt.drainOnce.Do(func() {
		rt.mu.Lock()
		if rt.watchStop != nil {
			close(rt.watchStop)
			rt.watchStop = nil
		}
		feedStop, feedDone := rt.feedStop, rt.feedDone
		rt.feedStop, rt.feedDone = nil, nil
		rt.mu.Unlock()
		if feedStop != nil {
			// Disarm the external watchdog before the driver stops: the
			// deliberate shutdown ahead must not read as a hang, and the
			// STOPPING=1 send is awaited so no later feed can re-arm it.
			close(feedStop)
			<-feedDone
		}
		rt.driver.Stop()
		// Hung checker goroutines outlive Stop by design (the reaper abandons
		// them); poll in real time — even under a virtual clock the leaked
		// goroutines run on the OS scheduler.
		budget := 2 * rt.cfg.Timeout
		deadline := time.Now().Add(budget)
		for rt.driver.LeakedHung() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := rt.driver.LeakedHung(); n > 0 {
			rt.drainErr = fmt.Errorf("wdruntime: %d hung checker goroutine(s) still leaked after the %v drain budget", n, budget)
		}
	})
	return rt.drainErr
}

// Close tears the stack down in order: drain the driver, sync and close the
// journal file, close the observability server, then wait for in-flight
// recovery retries. Idempotent; errors along the way are joined.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() {
		var errs []error
		// The mesh goes down first: peers should see a deliberate shutdown as
		// ordinary silence, and no gossip should observe a draining driver.
		if m := rt.Mesh(); m != nil {
			errs = append(errs, m.Close())
		}
		errs = append(errs, rt.Drain())
		// Drain the rule engine after the driver stops but before the journal
		// file syncs: events already published must get their evaluation
		// pass, and any resulting KindCEP entries must reach the file.
		if rt.cep != nil {
			rt.cep.Drain(rt.driver.Clock().Now())
		}
		if rt.journalF != nil {
			errs = append(errs, rt.journalF.Sync(), rt.journalF.Close())
		}
		if rt.obs != nil {
			errs = append(errs, rt.obs.Journal().SinkErr())
		}
		rt.mu.Lock()
		srv := rt.srv
		rt.srv = nil
		rt.mu.Unlock()
		if srv != nil {
			errs = append(errs, srv.Close())
		}
		if rt.rec != nil {
			rt.rec.Wait()
		}
		rt.closeErr = errors.Join(errs...)
	})
	return rt.closeErr
}
