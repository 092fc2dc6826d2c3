// Command perfbench is the repository benchmark: it generates a workload's
// inputs from a seed, drives the partitioning stack from outside through its
// public calls, checks every output against a reference, and prints the
// result as one JSON line.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload envnr-auto --seed 1 --seconds 30 --trace 0
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//
//	envnr-auto        env_nr twin, binary index file, blast_partition_auto.xml
//	pokec-hybrid-ooc  Pokec twin, text edge list, hybrid_cut.xml under a spill budget
//	papard-mixed      in-process service.Server driven by a closed loop of clients
//
// Every workload reports every end-to-end metric. A batch operation is one
// full pass (compile, planopt, execute, write) and a papard operation is one
// job from Submit to Done. rows_per_s counts input rows, and for a delta job
// the rows it appends plus deletes; jobs_per_s is 1/median pass or jobs per
// second; latency_tail_ms is p75 of a run's few dozen passes and p99 of its
// jobs; restart_s is re-reading the input file for a batch workload and
// service.New replaying the journal for papard; makespan_virtual_ms is the
// pass's virtual makespan, or the mean over papard's warm-up jobs.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose spans are
// written to .bench_build/traces/. Set-up and warm-up are never timed as part
// of the measured window. A failed correctness check makes the result say
// "correct": false and the process exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options drive one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// checkout is the repository root the run reads and writes under.
	checkout string
	// work is this run's private directory below checkout/.bench_build,
	// removed at exit.
	work string
	// tiny shrinks every dataset and repeat count for the self-tests.
	tiny bool
	// corrupt, when set, tampers with each operation's output before it is
	// checked; the self-tests use it to prove the gates fire.
	corrupt *tamper
}

// tamper lists the output mutations the self-tests inject.
type tamper struct {
	// swapRow moves one row of a batch result into another partition.
	swapRow bool
	// flipChecksum alters the checksum a papard job reports.
	flipChecksum bool
}

// run is the outcome of one workload run before it is rendered.
type run struct {
	attempted, failed int
	errors            []string
	metrics           map[string]metric
	seeds             map[string]int64
	spans             *tracer
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < 20 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// endToEnd and perLayer name every metric a run reports, with its unit, as
// BENCHMARK.json declares them.
var endToEnd = map[string]string{
	"latency_p50_ms":      "ms",
	"latency_tail_ms":     "ms",
	"rows_per_s":          "rows/s",
	"jobs_per_s":          "1/s",
	"makespan_virtual_ms": "ms_virtual",
	"alloc_mb":            "MB",
	"peak_rss_mb":         "MB",
	"setup_s":             "s",
	"restart_s":           "s",
}

var perLayer = map[string]string{
	"compile.ms":                        "ms",
	"planopt.ms":                        "ms",
	"planopt.alloc_mb":                  "MB",
	"planopt.rules_fired":               "count",
	"planopt.predicted_over_actual":     "ratio",
	"ingest.decode_ms":                  "ms",
	"ingest.rows":                       "rows",
	"execute.ms":                        "ms",
	"execute.alloc_mb":                  "MB",
	"execute.gc_cpu_frac":               "fraction",
	"vt.launch_ms":                      "ms_virtual",
	"vt.sort_busy_ms":                   "ms_virtual",
	"vt.group_busy_ms":                  "ms_virtual",
	"vt.aggregate_busy_ms":              "ms_virtual",
	"vt.write_busy_ms":                  "ms_virtual",
	"vt.load_imbalance":                 "ratio",
	"vt.straggler_gap_ms":               "ms_virtual",
	"shuffle.bytes":                     "B",
	"shuffle.messages":                  "count",
	"shuffle.imbalance":                 "ratio",
	"spill.bytes_out":                   "B",
	"spill.bytes_in":                    "B",
	"spill.stalls":                      "count",
	"write.ms":                          "ms",
	"write.bytes":                       "B",
	"service.submit_us_p50":             "us",
	"service.submit_us_p99":             "us",
	"service.queue_depth_max":           "count",
	"service.journal_bytes_per_job":     "B",
	"service.journal_appends_per_job":   "count",
	"service.calibration":               "ratio",
	"service.retries":                   "count",
	"service.partition_latency_p50_ms":  "ms",
	"incremental.delta_latency_p50_ms":  "ms",
	"incremental.moved_rows_per_job":    "rows",
	"incremental.moved_per_changed_row": "ratio",
	"trace.overhead_frac":               "fraction",
	"trace.unattributed_frac":           "fraction",
}

// complete checks the reported metrics against the declared set. A layer
// the workload bypasses reports 0 in a traced run; every end-to-end metric
// must have been measured.
func (r *run) complete(traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
		for name, unit := range perLayer {
			if _, ok := r.metrics[name]; !ok {
				r.set(name, 0, unit)
			}
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for name, m := range r.metrics {
		if want[name] != m.Unit {
			return fmt.Errorf("metric %s reported in %q, declared %q", name, m.Unit, want[name])
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

var workloads = map[string]func(options, *run) error{
	"envnr-auto":       runEnvNR,
	"pokec-hybrid-ooc": runPokec,
	"papard-mixed":     runPapard,
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (envnr-auto, pokec-hybrid-ooc, papard-mixed)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload envnr-auto|pokec-hybrid-ooc|papard-mixed, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.checkout = wd
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload in a private work directory and renders its
// result. Errors are reserved for runs that could not measure at all.
func execute(o options) (*result, error) {
	base := filepath.Join(o.checkout, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	var err error
	o.work, err = os.MkdirTemp(base, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work)

	r := &run{metrics: map[string]metric{}, seeds: map[string]int64{}, spans: newTracer()}
	if err := workloads[o.workload](o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := r.complete(o.trace); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	fp := fingerprint(o, r.seeds)
	fpLine, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	fmt.Println("fingerprint " + string(fpLine))
	for _, e := range r.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if o.trace {
		path, err := r.spans.write(filepath.Join(base, "traces"), o, fp)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}
