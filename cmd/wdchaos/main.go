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
//	wdchaos -substrate kvs -checkers reduced -min-detection-rate 0.01 -json
//	wdchaos -substrate kvs -checkers probe -min-detection-rate 0.01 -json
//	wdchaos -substrate cep -seed 42 -json
//	wdchaos -substrate super -seed 42 -outages 2 -json
//
// The -checkers flag (kvs and dfs only) selects the ablation targets: the
// same substrate scored under the reduced suite alone (E13); on kvs also under
// one of the detectors the paper compares watchdogs with — probe, signal,
// handler, heartbeat (E1–E2). Detector runs miss faults by design — pass a
// low -min-detection-rate and compare verdicts instead of gating on exit
// status.
//
// Unless -dir names one, the kvs and dfs substrates run in a scratch
// directory that wdchaos creates and removes on exit, whatever the verdict.
//
// The synthetic substrate runs on a virtual clock, so a full
// campaign completes in milliseconds and is reproducible bit-for-bit from the
// seed. The kvs and dfs substrates exercise real stores on the real clock;
// keep -interval small and the tick counts modest there. The mesh substrate
// boots a seeded in-process cluster and scores remote gray-failure detection
// and partition tolerance (see campaign.RunMesh). The meshscale substrate
// steps hundreds of mesh nodes on a virtual clock through correlated
// partition, churn, and lossy-link faults, and gates message volume at
// O(N·K) (see meshscale.Run). The super substrate runs a
// real crash-restart supervisor over re-executions of this binary and scores
// time-to-restart, stuck detection, episode adoption, and the restart-storm
// breaker (see campaign.RunSuper).
package main

import (
	"errors"
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
	os.Exit(run())
}

// run runs the campaign the flags select and returns the exit status. It
// returns rather than exits so that its deferred cleanup — closing the target
// and removing the scratch directory — runs on every path.
func run() int {
	var (
		substrate = flag.String("substrate", "synth", "system under campaign: synth|kvs|dfs|mesh|meshscale|cep|super")
		checkers  = flag.String("checkers", "", "ablation checker source: reduced (kvs, dfs) or detector arm probe|signal|handler|heartbeat (kvs); empty = standard target")
		dir       = flag.String("dir", "", "scratch directory for disk-backed substrates (default: a temp dir, removed on exit)")
		seed      = flag.Int64("seed", 1, "schedule-generation seed")

		interval = flag.Duration("interval", 100*time.Millisecond, "campaign tick interval")
		warmup   = flag.Int("warmup", 10, "fault-free warmup ticks")
		storm    = flag.Int("storm", 40, "storm-phase ticks (faults are armed here)")
		cooldown = flag.Int("cooldown", 20, "fault-free cooldown ticks")
		grace    = flag.Int("grace", 5, "leading cooldown ticks where residue counts as collateral")
		minRate  = flag.Float64("min-detection-rate", 0.75, "pass threshold on detected/injected")

		breaker    = flag.Int("breaker", 3, "checker circuit-breaker threshold (0 disables)")
		backoff    = flag.Duration("breaker-backoff", 0, "breaker backoff base (0 = 2x checker interval)")
		damp       = flag.Duration("damp", 30*time.Second, "alarm-damping suppression window (0 disables)")
		hangBudget = flag.Int("hang-budget", 2, "leaked hung-goroutine budget (0 disables)")

		rawJSON = flag.Bool("json", false, "print the verdict as JSON instead of the human rendering")

		nodes        = flag.Int("nodes", 0, "mesh substrates: cluster size (0 = substrate default: 3 for mesh, 500 for meshscale)")
		quorum       = flag.Int("quorum", 2, "mesh substrates: cluster-verdict corroboration threshold")
		meshInterval = flag.Duration("mesh-interval", 0, "mesh substrates: gossip period (0 = substrate default)")
		fanout       = flag.Int("fanout", 3, "meshscale substrate: peers sampled per gossip round")

		outages = flag.Int("outages", 2, "super substrate: SIGKILL rounds before the hang/adoption/storm phases")
	)
	flag.Parse()

	if *checkers != "" && *substrate != "kvs" && *substrate != "dfs" {
		return fail(errors.New("-checkers applies to the kvs and dfs substrates only"))
	}
	switch *substrate {
	case "mesh":
		n, iv := *nodes, *meshInterval
		if n == 0 {
			n = 3
		}
		if iv == 0 {
			iv = 25 * time.Millisecond
		}
		return runMesh(*seed, n, *quorum, iv, *rawJSON)
	case "meshscale":
		return runMeshScale(*seed, *nodes, *fanout, *quorum, *meshInterval, *rawJSON)
	case "cep":
		return runCEP(*seed, *interval, *rawJSON)
	case "super":
		return runSuper(*seed, *outages, *dir, *rawJSON)
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
	opts = append(opts, wdruntime.WithJitterSeed(*seed))

	if *dir == "" && *substrate != "synth" {
		tmp, err := os.MkdirTemp("", "wdchaos-*")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	tgt, err := buildTarget(*substrate, *checkers, *dir, opts)
	if err != nil {
		return fail(err)
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
		MinDetectionRate: *minRate,
	})
	if err != nil {
		return fail(err)
	}
	return report(verdict, verdict.Pass, *rawJSON)
}

func buildTarget(substrate, checkers, dir string, opts []wdruntime.Option) (*campaign.Target, error) {
	if substrate == "synth" {
		return campaign.NewSynthTarget(clock.NewVirtual(), opts...), nil
	}
	if checkers != "" {
		return campaign.NewAblationTarget(substrate, dir, checkers, opts...)
	}
	return campaign.NewTarget(substrate, dir, opts...)
}

// runMesh scores the multi-node mesh campaign: remote fail-slow detection via
// gossiped intrinsic verdicts, verdict clearing, and false-positive counts
// under a seeded one-way partition.
func runMesh(seed int64, nodes, quorum int, interval time.Duration, rawJSON bool) int {
	verdict, err := campaign.RunMesh(campaign.MeshConfig{
		Seed:     seed,
		Nodes:    nodes,
		Quorum:   quorum,
		Interval: interval,
	})
	if err != nil {
		return fail(err)
	}
	return report(verdict, verdict.Pass, rawJSON)
}

// runMeshScale scores the mesh-at-scale survival campaign: hundreds of
// Step-mode nodes on a virtual clock under seeded correlated partitions,
// churn, and lossy links (see meshscale.Run). The verdict is
// deterministic in the seed.
func runMeshScale(seed int64, nodes, fanout, quorum int, interval time.Duration, rawJSON bool) int {
	verdict, err := meshscale.Run(meshscale.Config{
		Seed:     seed,
		Nodes:    nodes,
		Fanout:   fanout,
		Quorum:   quorum,
		Interval: interval,
	})
	if err != nil {
		return fail(err)
	}
	return report(verdict, verdict.Pass, rawJSON)
}

// runCEP scores the temporal-rule campaign: a seeded streak + spread fault
// sequence on the synthetic substrate under a virtual clock, with a
// fault-free control arm whose firings count as false positives (see
// campaign.RunCEP).
func runCEP(seed int64, interval time.Duration, rawJSON bool) int {
	verdict, err := campaign.RunCEP(campaign.CEPConfig{
		Seed:     seed,
		Interval: interval,
	})
	if err != nil {
		return fail(err)
	}
	return report(verdict, verdict.Pass, rawJSON)
}

// runSuper scores the supervision campaign: a real Supervisor over
// re-executions of this binary, SIGKILLed, SIGSTOPped, and crash-looped on a
// seeded schedule (see campaign.RunSuper).
func runSuper(seed int64, outages int, dir string, rawJSON bool) int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	verdict, err := campaign.RunSuper(campaign.SuperConfig{
		Seed:         seed,
		ChildCommand: []string{exe},
		Outages:      outages,
		Dir:          dir,
	})
	if err != nil {
		return fail(err)
	}
	return report(verdict, verdict.Pass, rawJSON)
}

// report prints a campaign verdict, as JSON or rendered, and returns the exit
// status: 1 when the verdict failed.
func report(v interface {
	JSON() ([]byte, error)
	Render() string
}, pass, rawJSON bool) int {
	if rawJSON {
		data, err := v.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(v.Render())
	}
	if !pass {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "wdchaos: %v\n", err)
	return 1
}
