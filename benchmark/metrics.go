package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one line of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median by which an end-to-end metric may
// worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. The driver's contract wants every one of
// them from every workload, never zero, so they are the four figures all
// seven workloads have: what it costs to get going, how much work gets done,
// and how long one unit of work takes, typically and towards the tail.
// README.md says what a unit of work is on each workload, and why every
// bound is the widest the contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_mean95_us", "us", "lower", 0.25},
	{"lat_p90_us", "us", "lower", 0.25},
}

// perLayer are the ungated metrics, "<module>.<metric>". A workload reports
// 0 for a layer it does not touch; that zero is the "predicted flat" row of
// README.md's interaction map. client.* are the view from the load
// generator, including the workload-specific figures ISSUE 12 listed as
// end-to-end and the contract could not carry (see README.md, "Demoted").
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "us", "client.get_p50_us", "client.get_p99_us", "client.set_p50_us", "client.set_p99_us",
		"client.rtt_get_us", "client.rtt_set_us", "client.rtt_scan_us")
	add("lower", "ratio", "client.failed_ratio")
	add("lower", "ms", "client.detect_error_p50_ms", "client.detect_hang_p50_ms", "client.clear_p50_ms")
	add("lower", "count", "client.false_alarms")
	add("higher", "1/s", "client.checks_per_s")
	add("lower", "ms", "client.mesh_round_ms")
	add("lower", "rounds", "client.mesh_detect_rounds")

	add("lower", "us", "kvs.server.self_get_us", "kvs.server.self_set_us", "kvs.server.self_scan_us")
	add("lower", "count", "kvs.server.allocs_per_op")
	add("lower", "us", "kvs.store.get_us", "kvs.store.set_us", "kvs.store.scan_us", "kvs.store.self_set_us")
	add("lower", "count", "kvs.store.set_allocs_per_op", "kvs.store.get_allocs_per_op")
	add("lower", "ms", "kvs.store.flush_all_ms", "kvs.store.compact_all_ms", "kvs.store.reopen_ms")
	add("lower", "count", "kvs.store.tables_per_partition")
	add("lower", "ratio", "kvs.store.disk_bytes_per_user_byte")
	add("lower", "count", "kvs.flushes", "kvs.compactions")

	add("lower", "ns", "wal.append_ns")
	add("lower", "us", "wal.sync_us")
	add("lower", "ns", "memtable.put_ns", "memtable.get_ns", "memtable.ceil_ns")
	add("lower", "us", "memtable.entries_us", "sstable.get_us")
	add("lower", "ns", "sstable.seek_next_ns")
	add("lower", "ms/MB", "sstable.write_ms_per_mb", "sstable.merge_ms_per_mb")
	add("lower", "ns", "faultinject.fire_disarmed_ns", "gauge.counter_inc_ns")

	add("lower", "ns", "watchdog.hook_putall_ns")
	add("lower", "us", "watchdog.checkall_round_us", "watchdog.driver_self_us")
	add("lower", "ms", "watchdog.first_report_p50_ms")
	add("lower", "%", "watchdog.wd_overhead_pct")
	add("higher", "1/s", "kvs.ops_per_s_wdoff")
	add("lower", "us", "checker.kvs.flusher_us", "checker.kvs.wal_us", "checker.kvs.indexer_us",
		"checker.kvs.compaction_us", "checker.kvs.partition_us")
	add("higher", "ratio", "checker.pinpoint_ok_ratio")
	add("lower", "ms", "coord.zk2201_detect_ms")

	add("lower", "ns", "wdobs.observe_report_ns", "wdobs.journal_append_ns", "wdcep.ingest_ns_per_event")
	add("lower", "count", "wdcep.ring_dropped")
	add("lower", "ms", "wdruntime.start_ms", "wdruntime.drain_close_ms")

	add("lower", "us", "wdmesh.step_us_per_node", "wdmesh.verdicts_us")
	add("lower", "count", "wdmesh.msgs_per_round")
	add("lower", "ns", "wdmesh.wire_roundtrip_ns_per_frame")

	add("lower", "s/Mop", "proc.cpu_s_per_mop")
	add("lower", "ms", "proc.gc_pause_total_ms")
	add("lower", "MB", "proc.rss_peak_mb")
	add("lower", "us", "loadgen.late_p99_us")
	add("lower", "%", "trace.overhead_pct")
	return out
}()

// manifest is BENCHMARK.json. It is generated from the tables in this
// package (-manifest) and a test keeps the committed file equal to it.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const defaultSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "gowatchdog/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadInfo{w.name, w.why})
	}
	return m
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	attempted int64
	failed    int64
	// e2e holds every end-to-end metric; layers every per-layer metric the
	// workload measured (the rest are reported as 0).
	e2e    map[string]float64
	layers map[string]float64
	// notes are lines for the human reader: sample counts, the highest
	// supported percentile of each timing, confirmations.
	notes []string
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf counts one wrong answer and describes the first few.
func (r *result) failf(format string, args ...any) {
	if r.failed++; r.failed <= maxFailureNotes {
		r.notef("WRONG: "+format, args...)
	}
}

const maxFailureNotes = 5

// noteTiming records a timing the way the metrics guide asks: median, the
// highest percentile with at least ten samples beyond it, and the count.
func (r *result) noteTiming(name, unit string, t timing) {
	r.notef("%-28s p50 %.1f %s, p%g %.1f %s, n=%d", name, t.P50, unit, t.TailP, t.Tail, unit, t.N)
}

func (r *result) correct() bool { return r.failed == 0 }

// driverLine is the last line of standard output in driver mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders the contract's result line: every end-to-end metric with
// trace off, every per-layer metric with trace on.
func (r *result) driverJSON(trace bool) ([]byte, error) {
	line := driverLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layers
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("%s did not produce end-to-end metric %s", r.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return json.Marshal(line)
}

// print writes the human-readable report of one run.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, d := range endToEnd {
		if v, ok := r.e2e[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.layers[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}
