// Command wdchaos runs a randomized fault-injection campaign against one of
// the watchdog-instrumented substrates and prints the scored verdict. It is
// the CI face of internal/campaign: a nonzero exit means the self-hardening
// loop misbehaved (false positives in fault-free phases, detection rate below
// threshold, or a blown hang budget).
//
// Usage:
//
//	wdchaos -substrate synth -seed 42 -json
//	wdchaos -substrate kvs -dir /tmp/chaos -interval 20ms -storm 20
//	wdchaos -substrate synth -seed 7 -breaker 3 -damp 30s -hang-budget 2
//	wdchaos -substrate mesh -seed 7 -nodes 3 -quorum 2 -mesh-interval 20ms
//	wdchaos -substrate meshscale -seed 1 -nodes 500 -fanout 3 -json
//	wdchaos -substrate kvs -checkers mined -min-detection-rate 0.01 -json
//	wdchaos -substrate kvs -checkers probe -min-detection-rate 0.01 -json
//	wdchaos -substrate cep -seed 42 -json
//	wdchaos -substrate super -seed 42 -outages 2 -json
//
// The -checkers flag (kvs and dfs only) selects the ablation targets: the
// same substrate scored under the reduced suite, the test-mined suite (awgen
// -from-tests), or both (E13); on kvs also under one of the detectors the
// paper compares watchdogs with — probe, signal, handler, heartbeat (E1–E2).
// Mined-only and detector runs miss faults by design — pass a low
// -min-detection-rate and compare verdicts instead of gating on exit status.
//
// The synthetic substrate runs on a virtual clock by default, so a full
// campaign completes in milliseconds and is reproducible bit-for-bit from the
// seed. The kvs and dfs substrates exercise real stores on the real clock;
// keep -interval small and the tick counts modest there. The mesh substrate
// boots a seeded in-process cluster and scores remote gray-failure detection
// and partition tolerance (see campaign.RunMesh). The meshscale substrate
// steps hundreds of mesh nodes on a virtual clock through correlated
// partition, churn, and lossy-link faults, and gates message volume at
// O(N·K) (see campaign.RunMeshScale). The super substrate runs a
// real crash-restart supervisor over re-executions of this binary and scores
// time-to-restart, stuck detection, episode adoption, and the restart-storm
// breaker (see campaign.RunSuper).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gowatchdog/internal/campaign"
	"gowatchdog/internal/campaign/meshscale"
	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

func main() {
	// When the super campaign re-executes this binary as its supervised
	// daemon, become the child and never reach flag parsing.
	campaign.MaybeSuperChild()

	var (
		substrate = flag.String("substrate", "synth", "system under campaign: synth|kvs|dfs|mesh|meshscale|cep|super")
		checkers  = flag.String("checkers", "", "ablation checker source: reduced|mined|both (kvs, dfs) or detector arm probe|signal|handler|heartbeat (kvs); empty = standard target")
		dir       = flag.String("dir", "", "scratch directory for disk-backed substrates (default: temp dir)")
		seed      = flag.Int64("seed", 1, "schedule-generation seed")
		realClock = flag.Bool("real-clock", false, "run the synth substrate on the real clock instead of a virtual one")

		interval = flag.Duration("interval", 100*time.Millisecond, "campaign tick interval")
		warmup   = flag.Int("warmup", 10, "fault-free warmup ticks")
		storm    = flag.Int("storm", 40, "storm-phase ticks (faults are armed here)")
		cooldown = flag.Int("cooldown", 20, "fault-free cooldown ticks")
		grace    = flag.Int("grace", 5, "leading cooldown ticks where residue counts as collateral")
		maxConc  = flag.Int("max-concurrent", 2, "max simultaneously armed faults in generated schedules")
		minRate  = flag.Float64("min-detection-rate", 0.75, "pass threshold on detected/injected")

		breaker    = flag.Int("breaker", 3, "checker circuit-breaker threshold (0 disables)")
		backoff    = flag.Duration("breaker-backoff", 0, "breaker backoff base (0 = 2x checker interval)")
		damp       = flag.Duration("damp", 30*time.Second, "alarm-damping suppression window (0 disables)")
		hangBudget = flag.Int("hang-budget", 2, "leaked hung-goroutine budget (0 disables)")

		timeout = flag.Duration("wd-timeout", 0, "checker liveness timeout override (0 = substrate default)")
		rawJSON = flag.Bool("json", false, "print the verdict as JSON instead of the human rendering")

		nodes        = flag.Int("nodes", 0, "mesh substrates: cluster size (0 = substrate default: 3 for mesh, 500 for meshscale)")
		quorum       = flag.Int("quorum", 2, "mesh substrates: cluster-verdict corroboration threshold")
		meshInterval = flag.Duration("mesh-interval", 0, "mesh substrates: gossip period (0 = substrate default)")
		fanout       = flag.Int("fanout", 3, "meshscale substrate: peers sampled per gossip round")

		outages       = flag.Int("outages", 2, "super substrate: SIGKILL rounds before the hang/adoption/storm phases")
		feedWindow    = flag.Duration("feed-window", 300*time.Millisecond, "super substrate: sd_notify watchdog window")
		stormRestarts = flag.Int("storm-restarts", 3, "super substrate: crash-loop breaker threshold")
	)
	flag.Parse()

	if *substrate == "mesh" {
		n, iv := *nodes, *meshInterval
		if n == 0 {
			n = 3
		}
		if iv == 0 {
			iv = 25 * time.Millisecond
		}
		runMesh(*seed, n, *quorum, iv, *rawJSON)
		return
	}
	if *substrate == "meshscale" {
		runMeshScale(*seed, *nodes, *fanout, *quorum, *meshInterval, *rawJSON)
		return
	}
	if *substrate == "cep" {
		runCEP(*seed, *interval, *rawJSON)
		return
	}
	if *substrate == "super" {
		runSuper(*seed, *outages, *feedWindow, *stormRestarts, *dir, *rawJSON)
		return
	}

	var opts []wdruntime.Option
	if *breaker > 0 {
		opts = append(opts, wdruntime.WithBreaker(watchdog.BreakerConfig{
			Threshold:   *breaker,
			BackoffBase: *backoff,
			// Jitter decorrelates probe storms in production; a campaign wants
			// the same verdict for the same seed, so disable it.
			JitterFrac: -1,
		}))
	}
	if *damp > 0 {
		opts = append(opts, wdruntime.WithAlarmDamping(*damp))
	}
	if *hangBudget > 0 {
		opts = append(opts, wdruntime.WithHangBudget(*hangBudget))
	}
	if *timeout > 0 {
		opts = append(opts, wdruntime.WithTimeout(*timeout))
	}
	opts = append(opts, wdruntime.WithJitterSeed(*seed))

	tgt, err := buildTarget(*substrate, *checkers, *dir, *realClock, opts)
	if err != nil {
		fatal(err)
	}
	if tgt.Close != nil {
		defer tgt.Close()
	}

	verdict, err := campaign.Run(tgt, campaign.Config{
		Seed:             *seed,
		Interval:         *interval,
		WarmupTicks:      *warmup,
		StormTicks:       *storm,
		CooldownTicks:    *cooldown,
		GraceTicks:       *grace,
		MaxConcurrent:    *maxConc,
		MinDetectionRate: *minRate,
		HangBudget:       *hangBudget,
	})
	if err != nil {
		fatal(err)
	}

	if *rawJSON {
		data, err := verdict.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(verdict.Render())
	}
	if !verdict.Pass {
		os.Exit(1)
	}
}

func buildTarget(substrate, checkers, dir string, realClock bool, opts []wdruntime.Option) (*campaign.Target, error) {
	if substrate == "synth" {
		if checkers != "" {
			return nil, fmt.Errorf("-checkers applies to the kvs and dfs substrates only")
		}
		clk := clock.Clock(clock.Real())
		if !realClock {
			clk = clock.NewVirtual()
		}
		return campaign.NewSynthTarget(clk, opts...), nil
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "wdchaos-*")
		if err != nil {
			return nil, err
		}
		dir = tmp
	}
	if checkers != "" {
		return campaign.NewAblationTarget(substrate, dir, checkers, opts...)
	}
	return campaign.NewTarget(substrate, dir, opts...)
}

// runMesh scores the multi-node mesh campaign: remote fail-slow detection via
// gossiped intrinsic verdicts, verdict clearing, and false-positive counts
// under a seeded one-way partition.
func runMesh(seed int64, nodes, quorum int, interval time.Duration, rawJSON bool) {
	verdict, err := campaign.RunMesh(campaign.MeshConfig{
		Seed:     seed,
		Nodes:    nodes,
		Quorum:   quorum,
		Interval: interval,
	})
	if err != nil {
		fatal(err)
	}
	if rawJSON {
		data, err := verdict.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(verdict.Render())
	}
	if !verdict.Pass {
		os.Exit(1)
	}
}

// runMeshScale scores the mesh-at-scale survival campaign: hundreds of
// Step-mode nodes on a virtual clock under seeded correlated partitions,
// churn, and lossy links (see campaign.RunMeshScale). The verdict is
// deterministic in the seed.
func runMeshScale(seed int64, nodes, fanout, quorum int, interval time.Duration, rawJSON bool) {
	verdict, err := campaign.RunMeshScale(meshscale.Config{
		Seed:     seed,
		Nodes:    nodes,
		Fanout:   fanout,
		Quorum:   quorum,
		Interval: interval,
	})
	if err != nil {
		fatal(err)
	}
	if rawJSON {
		data, err := verdict.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(verdict.Render())
	}
	if !verdict.Pass {
		os.Exit(1)
	}
}

// runCEP scores the temporal-rule campaign: a seeded streak + spread fault
// sequence on the synthetic substrate under a virtual clock, with a
// fault-free control arm whose firings count as false positives (see
// campaign.RunCEP).
func runCEP(seed int64, interval time.Duration, rawJSON bool) {
	verdict, err := campaign.RunCEP(campaign.CEPConfig{
		Seed:     seed,
		Interval: interval,
	})
	if err != nil {
		fatal(err)
	}
	if rawJSON {
		data, err := verdict.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(verdict.Render())
	}
	if !verdict.Pass {
		os.Exit(1)
	}
}

// runSuper scores the supervision campaign: a real Supervisor over
// re-executions of this binary, SIGKILLed, SIGSTOPped, and crash-looped on a
// seeded schedule (see campaign.RunSuper).
func runSuper(seed int64, outages int, feedWindow time.Duration, stormRestarts int, dir string, rawJSON bool) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	verdict, err := campaign.RunSuper(campaign.SuperConfig{
		Seed:          seed,
		ChildCommand:  []string{exe},
		Outages:       outages,
		FeedWindow:    feedWindow,
		StormRestarts: stormRestarts,
		Dir:           dir,
	})
	if err != nil {
		fatal(err)
	}
	if rawJSON {
		data, err := verdict.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(verdict.Render())
	}
	if !verdict.Pass {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wdchaos: %v\n", err)
	os.Exit(1)
}
