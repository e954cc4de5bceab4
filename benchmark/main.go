// Command benchmark is the repository's benchmark: seven workloads over the
// serving chain (kvs wire server, store, wal, memtable, sstable) and the
// watcher chain (hooks, checkers, driver, wdobs, wdcep, wdmesh), each booted
// in-process through public APIs and loaded by this package's own seeded
// generator. See README.md for every workload and metric.
//
// The driver runs one workload per process:
//
//	go run -C benchmark gowatchdog/benchmark --workload kvs_mixed_cpu --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without --workload the whole
// suite runs and every metric is printed by name and unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runCtx is what a workload gets to run with.
type runCtx struct {
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool    // also take the per-layer measurements
	quick   bool    // smoke run: small key spaces, one set-up
	outDir  string  // scratch space inside the checkout
	log     io.Writer
}

// dur converts a share of the run length into a duration.
func (c *runCtx) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

type workload struct {
	name string
	why  string
	run  func(*runCtx) (*result, error)
}

var workloads = []workload{
	{"kvs_mixed_cpu", "closed loop get70/set25/scan5 on 64k memtable-resident keys, no fsync: wire parse and memtable dominate (CPU-bound arm)", runMixedCPU},
	{"kvs_mixed_open", "open loop at 8k ops/s on production defaults (group commit, flush, compaction): latency from due time shows fsync head-of-line blocking", runMixedOpen},
	{"kvs_write_durable", "closed loop set100 under group commit: wal fsync and background rewrite dominate, the wire does little (fsync-bound arm)", runWriteDurable},
	{"kvs_read_spill", "zipf get95/set5 on 51 MB of tables against a 1 MiB memtable: sstable lookups dominate, the path kvs_mixed_cpu bypasses", runReadSpill},
	{"detect_faults", "seeded error and hang injections at stratified phases of the check interval: fault onset to alarm to healthy, the payback side", runDetectFaults},
	{"wd_chain", "CheckAll back to back over 5 mimic + 32 synthetic checkers with journal sink and 4 CEP rules, hooks at 50k/s: the watcher chain's cost", runWDChain},
	{"mesh_step_200", "200 Step-mode mesh nodes on MemNetwork and a virtual clock with 5% lossy links: health-plane CPU per gossip round, no kvs layer", runMeshStep},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne runs w in a fresh scratch directory and removes it afterwards.
func runOne(w *workload, ctx runCtx) (*result, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("out", w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if ctx.outDir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	res, err := w.run(&ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.layers["client.failed_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	return res, nil
}

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print the driver's result line last; empty runs the suite")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of each workload's measured phase")
		trace     = flag.Int("trace", 0, "1 also takes the per-layer measurements and writes out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
		quick     = flag.Bool("quick", false, "smoke run: half a second per workload on small key spaces; the figures mean nothing")
		emit      = flag.Bool("manifest", false, "print BENCHMARK.json as generated from this package's tables and exit")
	)
	flag.Parse()
	if *emit {
		data, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(data))
		return
	}
	ctx := runCtx{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, log: os.Stdout}
	if ctx.quick {
		ctx.seconds = 0.5
	}
	var err error
	switch {
	case *name != "":
		err = driverMode(*name, ctx)
	case *selfcheck:
		err = selfCheck(ctx)
	default:
		_, err = runSuite(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// driverMode runs one workload and ends standard output with the contract's
// JSON line. A wrong answer is reported in the line ("correct": false) and
// the process still exits 0; a run that could not be completed exits 1
// without a line.
func driverMode(name string, ctx runCtx) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runOne(w, ctx)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	line, err := res.driverJSON(ctx.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSuite runs every workload once and prints every metric. It fails on any
// wrong answer.
func runSuite(ctx runCtx) ([]*result, error) {
	var out []*result
	wrong := 0
	for i := range workloads {
		res, err := runOne(&workloads[i], ctx)
		if err != nil {
			return nil, err
		}
		res.print(ctx.log)
		if !res.correct() {
			wrong++
		}
		out = append(out, res)
	}
	if wrong > 0 {
		return out, fmt.Errorf("%d workload(s) saw wrong answers", wrong)
	}
	return out, nil
}

// selfCheck runs the suite twice on the same code and compares the two sets:
// the relative difference of every (end-to-end metric, workload) pair must
// stay within the metric's bound, in the metric's worse direction.
func selfCheck(ctx runCtx) error {
	a, err := runSuite(ctx)
	if err != nil {
		return err
	}
	b, err := runSuite(ctx)
	if err != nil {
		return err
	}
	over := 0
	fmt.Fprintf(ctx.log, "\n%-18s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].e2e[d.Name], b[i].e2e[d.Name]
			diff := (y - x) / x
			if d.Better == "higher" {
				diff = -diff
			}
			flag := ""
			if diff > d.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(ctx.log, "%-18s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n",
				a[i].workload, d.Name, x, y, 100*diff, 100*d.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metric(s) moved by more than their bound between two runs of the same code", over)
	}
	return nil
}
