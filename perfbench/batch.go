package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/blast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/graph"
	"repro/internal/obsv"
	"repro/internal/planopt"
	"repro/internal/powerlyra"
)

// checker compares one pass's partitions with the reference partitioner.
type checker func(plan *core.Plan, parts [][]core.Row) error

// batchSpec is one batch partitioning workload: a generated input file and
// the workflow that partitions it.
type batchSpec struct {
	input, workflow string // embedded config names
	inputArg        string // the workflow's input-path argument
	args            map[string]string
	nodes           int
	optimize        bool
	memBudget       int64
	// generate writes the seed's dataset to path and returns its row count
	// and a constructor for the reference checker, kept out of set-up time.
	generate func(seed int64, path string) (int, func() checker, error)
}

const batchPartitions = 32

// runEnvNR: the env_nr twin as a binary index, partitioned by
// blast_partition_auto.xml. planopt binds auto to cyclic, elides the shuffle
// and fuses sort+distribute; outputs must equal blast.CyclicPartition.
func runEnvNR(o options, r *run) error {
	scale := 0.05 // 300k sequences
	if o.tiny {
		scale = 0.0005
	}
	return runBatch(o, r, batchSpec{
		input:    "blast_db.xml",
		workflow: "blast_partition_auto.xml",
		inputArg: "input_path",
		args:     map[string]string{"num_partitions": strconv.Itoa(batchPartitions), "num_reducers": strconv.Itoa(batchPartitions)},
		nodes:    16,
		optimize: true,
		generate: func(seed int64, path string) (int, func() checker, error) {
			db := blast.Generate(blast.EnvNR(), scale, seed)
			if err := blast.WriteDB(db, path); err != nil {
				return 0, nil, err
			}
			return db.NumSequences(), func() checker { return envNRChecker(db) }, nil
		},
	})
}

func envNRChecker(db *blast.Database) checker {
	ref := blast.CyclicPartition(db.Entries, batchPartitions)
	return func(plan *core.Plan, parts [][]core.Row) error {
		if len(parts) != len(ref) {
			return fmt.Errorf("%d partitions, want %d", len(parts), len(ref))
		}
		for p := range ref {
			recs, err := core.RowsToRecords(plan.InputSchema, parts[p])
			if err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			got, err := blast.FromRecords(recs)
			if err != nil {
				return fmt.Errorf("partition %d: %w", p, err)
			}
			if !ref[p].SameAsRows(got) {
				return fmt.Errorf("partition %d differs from blast.CyclicPartition", p)
			}
		}
		return nil
	}
}

// runPokec: the Pokec twin as a text edge list, partitioned by the literal
// three-job hybrid_cut.xml under a per-rank memory budget that makes the
// spill tier engage. planopt is not called. Outputs must hold the same edge
// multiset per partition as powerlyra.Partition(HybridCut).
func runPokec(o options, r *run) error {
	scale, budget := 0.02, int64(250_000) // 612k edges
	if o.tiny {
		scale, budget = 0.0005, 16<<10
	}
	return runBatch(o, r, batchSpec{
		input:     "graph_edge.xml",
		workflow:  "hybrid_cut.xml",
		inputArg:  "input_file",
		args:      map[string]string{"num_partitions": strconv.Itoa(batchPartitions), "threshold": strconv.Itoa(powerlyra.DefaultThreshold)},
		nodes:     16,
		memBudget: budget,
		generate: func(seed int64, path string) (int, func() checker, error) {
			g := graph.Generate(graph.Pokec(), scale, seed)
			if err := graph.WriteEdgeList(g, path); err != nil {
				return 0, nil, err
			}
			return g.NumEdges(), func() checker { return hybridChecker(g) }, nil
		},
	})
}

func hybridChecker(g *graph.Graph) checker {
	a, err := powerlyra.Partition(g, powerlyra.HybridCut, batchPartitions, powerlyra.DefaultThreshold)
	if err != nil {
		return func(*core.Plan, [][]core.Row) error { return err }
	}
	ref := a.PartitionEdges()
	want := make([][]uint64, len(ref))
	for p, edges := range ref {
		for _, e := range edges {
			want[p] = append(want[p], edgeKey(int64(e.Src), int64(e.Dst)))
		}
		sort.Slice(want[p], func(i, j int) bool { return want[p][i] < want[p][j] })
	}
	return func(_ *core.Plan, parts [][]core.Row) error {
		if len(parts) != len(want) {
			return fmt.Errorf("%d partitions, want %d", len(parts), len(want))
		}
		for p, rows := range parts {
			got := make([]uint64, 0, len(rows))
			for _, row := range rows {
				src, err := row.Values[0].AsInt()
				if err != nil {
					return fmt.Errorf("partition %d: %w", p, err)
				}
				dst, err := row.Values[1].AsInt()
				if err != nil {
					return fmt.Errorf("partition %d: %w", p, err)
				}
				got = append(got, edgeKey(src, dst))
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want[p]) {
				return fmt.Errorf("partition %d holds %d edges, powerlyra %d", p, len(got), len(want[p]))
			}
			for i := range got {
				if got[i] != want[p][i] {
					return fmt.Errorf("partition %d edge multiset differs from powerlyra hybrid-cut", p)
				}
			}
		}
		return nil
	}
}

func edgeKey(src, dst int64) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

// passer runs full passes, compile to write, of one batch workload.
type passer struct {
	b     batchSpec
	path  string // input file
	out   string // partition output directory
	seed  int64
	args  map[string]string
	exec  core.ExecOptions
	check checker
}

// passOut is what one pass leaves for the metrics and the checks.
type passOut struct {
	plan  *core.Plan
	rw    *planopt.Rewrite
	res   *core.Result
	spill cluster.SpillStats
	vt    *obsv.Metrics // traced passes only
	wall  time.Duration
	alloc uint64
}

// pass runs one full pass. With a tracer it records a span per layer call
// and attaches an obsv.Recorder to the cluster for the virtual-time split.
// Like a fresh papar process, every pass starts from a collected heap; only
// the collection of its own garbage falls inside its time.
func (p *passer) pass(tr *tracer, id int) (*passOut, error) {
	var rec *obsv.Recorder
	if tr != nil {
		rec = obsv.NewRecorder()
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	root := tr.begin("pass", id, -1)
	out, err := p.layers(tr, id, root, rec)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.alloc = readRuntime().allocBytes - before.allocBytes
	if rec != nil {
		out.vt = rec.Metrics()
	}
	return out, nil
}

// layers calls each layer in pipeline order: config + core compile,
// planopt, execution on a fresh cluster, partition write.
func (p *passer) layers(tr *tracer, id, root int, rec *obsv.Recorder) (*passOut, error) {
	out := &passOut{}
	sp := tr.begin("compile", id, root)
	fw := core.NewFramework()
	_, err := fw.RegisterInputConfig(repro.Config(p.b.input))
	if err == nil {
		out.plan, err = fw.CompileWorkflowConfig(repro.Config(p.b.workflow), p.args)
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if p.b.optimize {
		sp = tr.begin("planopt", id, root)
		var stats *planopt.InputStats
		stats, err = planopt.CollectStatsFromFile(out.plan, p.path, p.seed)
		if err == nil {
			out.rw, err = planopt.Optimize(out.plan, planopt.Options{Ranks: 2 * p.b.nodes, Stats: stats})
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("planopt: %w", err)
		}
		out.plan = out.rw.After
	}
	sp = tr.begin("execute", id, root)
	cl := cluster.New(cluster.DefaultConfig(p.b.nodes))
	cl.SetObserver(rec)
	out.res, err = core.ExecuteOpts(cl, out.plan, core.Input{Path: p.path}, p.exec)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}
	out.spill = cl.Stats().Spill
	sp = tr.begin("write", id, root)
	err = core.WritePartitions(out.plan, out.res, p.out)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	return out, nil
}

// verify gates one pass: partitions equal the reference, and the virtual
// makespan repeats the warm-up pass's exactly.
func (p *passer) verify(o options, r *run, out, warm *passOut) {
	r.attempted++
	parts := out.res.Partitions
	if o.corrupt != nil && o.corrupt.swapRow && len(parts) > 1 && len(parts[0]) > 0 && len(parts[1]) > 0 {
		parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
	}
	if err := p.check(out.plan, parts); err != nil {
		r.fail("pass: %v", err)
		return
	}
	if warm != nil && out.res.Makespan != warm.res.Makespan {
		r.fail("pass: virtual makespan %v, warm-up pass %v", out.res.Makespan, warm.res.Makespan)
	}
	out.res.Partitions = nil // checked; keeping the rows alive would inflate later passes' GC
}

// decodeFile streams the whole input through the ingest reader and counts
// its records.
func decodeFile(schema *dataformat.Schema, path string) (int, error) {
	sps, err := dataformat.Splits(schema, path, 1)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sp := range sps {
		if err := dataformat.StreamSplit(schema, sp, func(dataformat.Record) error { n++; return nil }); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runBatch sets a batch workload up several times, then runs full passes
// for the measured window, checking every one.
func runBatch(o options, r *run, b batchSpec) error {
	p := &passer{
		b:    b,
		path: filepath.Join(o.work, "input"),
		out:  filepath.Join(o.work, "out"),
		seed: o.seed,
		args: map[string]string{},
	}
	p.args[b.inputArg] = p.path
	p.args["output_path"] = p.out
	for k, v := range b.args {
		p.args[k] = v
	}
	if b.memBudget > 0 {
		p.exec.Spill = core.SpillOptions{MemBudget: b.memBudget, Dir: filepath.Join(o.work, "spill")}
	}
	r.seeds["dataset"] = o.seed

	// Set-up: generate and write the dataset, then a warm-up pass. Repeated
	// so setup_s is a median; the reference partitioner is not timed.
	var setupS []float64
	var warm *passOut
	rows := 0
	for i := 0; i < repeats(o, 3); i++ {
		start := time.Now()
		n, mkCheck, err := b.generate(o.seed, p.path)
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		gen := time.Since(start)
		if p.check == nil {
			p.check = mkCheck()
		}
		start = time.Now()
		out, err := p.pass(nil, -1)
		if err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		setupS = append(setupS, (gen + time.Since(start)).Seconds())
		p.verify(o, r, out, warm)
		rows, warm = n, out
	}
	schema := warm.plan.InputSchema

	// Measured window. In a traced run, untraced and traced passes
	// alternate so tracing overhead is measured under the same conditions.
	// After each pass the input file is read once more on its own: a
	// restarted partitioner first rebuilds its in-memory state from disk,
	// which for a batch pass is re-reading the input (restart_s), and the
	// same read is the ingest layer's decode cost (ingest.decode_ms). The
	// reads are spread over the window, not bunched, so that drift in the
	// host's speed averages out of their median.
	var walls, allocs, tracedWalls, reloadMS, decodeMS []float64
	var last *passOut
	decoded := 0
	deadline := time.Now().Add(o.seconds)
	for i := 0; ; i++ {
		enough := len(walls) >= 3 && (!o.trace || len(tracedWalls) >= 3)
		if enough && !time.Now().Before(deadline) {
			break
		}
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = r.spans
		}
		out, err := p.pass(tr, i)
		if err != nil {
			r.attempted++
			r.fail("pass %d: %v", i, err)
			break
		}
		p.verify(o, r, out, warm)

		runtime.GC()
		sp := tr.begin("ingest.decode", i, -1)
		start := time.Now()
		decoded, err = decodeFile(schema, p.path)
		read := ms(time.Since(start))
		tr.end(sp)
		r.attempted++
		if err != nil || decoded != rows {
			r.fail("reload: %d rows, want %d (%v)", decoded, rows, err)
		}
		if tr == nil {
			walls = append(walls, ms(out.wall))
			allocs = append(allocs, float64(out.alloc))
			reloadMS = append(reloadMS, read)
			continue
		}
		tracedWalls = append(tracedWalls, ms(out.wall))
		decodeMS = append(decodeMS, read)
		last = out
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if !o.trace {
		// A batch run holds 15 to 50 passes, too few for a p99, so its
		// tail is p75.
		r.set("latency_p50_ms", median(walls), "ms")
		r.set("latency_tail_ms", quantile(walls, 0.75), "ms")
		r.set("rows_per_s", float64(rows)/(median(walls)/1e3), "rows/s")
		r.set("jobs_per_s", 1e3/median(walls), "1/s")
		r.set("makespan_virtual_ms", float64(warm.res.Makespan)/1e6, "ms_virtual")
		r.set("alloc_mb", median(allocs)/1e6, "MB")
		r.set("peak_rss_mb", rss, "MB")
		r.set("setup_s", median(setupS), "s")
		r.set("restart_s", median(reloadMS)/1e3, "s")
		return nil
	}
	if last == nil {
		return fmt.Errorf("no traced pass completed")
	}
	return batchLayers(r, p, last, walls, tracedWalls, decodeMS, decoded)
}

// batchLayers derives the per-layer metrics of a traced batch run.
func batchLayers(r *run, p *passer, last *passOut, walls, tracedWalls, decodeMS []float64, decoded int) error {
	tr := r.spans
	r.set("compile.ms", tr.selfMS("compile"), "ms")
	if last.rw != nil {
		r.set("planopt.ms", tr.selfMS("planopt"), "ms")
		planSpans, _ := tr.named("planopt")
		r.set("planopt.alloc_mb", medianAllocMB(planSpans), "MB")
		r.set("planopt.rules_fired", float64(len(last.rw.Fired)), "count")
		r.set("planopt.predicted_over_actual", float64(last.rw.Predicted.AfterNS)/float64(last.res.Makespan), "ratio")
	}
	r.set("ingest.decode_ms", median(decodeMS), "ms")
	r.set("ingest.rows", float64(decoded), "rows")
	exec, _ := tr.named("execute")
	var gc, cpu float64
	for _, s := range exec {
		gc += s.GCCPU
		cpu += s.CPU
	}
	r.set("execute.ms", tr.selfMS("execute"), "ms")
	r.set("execute.alloc_mb", medianAllocMB(exec), "MB")
	if cpu > 0 {
		r.set("execute.gc_cpu_frac", gc/cpu, "fraction")
	}

	vt := last.vt
	busy := func(cat, name string) float64 {
		for _, ph := range vt.Phases {
			if ph.Cat == cat && ph.Name == name {
				return ph.BusyNS / 1e6
			}
		}
		return 0
	}
	r.set("vt.launch_ms", float64(len(last.plan.Jobs))*float64(core.JobLaunchOverhead)/1e6, "ms_virtual")
	r.set("vt.sort_busy_ms", busy("core", "sort"), "ms_virtual")
	r.set("vt.group_busy_ms", busy("core", "group"), "ms_virtual")
	r.set("vt.aggregate_busy_ms", busy("mrmpi", "aggregate"), "ms_virtual")
	r.set("vt.write_busy_ms", busy("core", "write"), "ms_virtual")
	r.set("vt.load_imbalance", vt.LoadImbalance, "ratio")
	r.set("vt.straggler_gap_ms", vt.StragglerGapNS/1e6, "ms_virtual")
	r.set("shuffle.bytes", float64(last.res.ShuffleBytes), "B")
	r.set("shuffle.messages", float64(last.res.ShuffleMessages), "count")
	r.set("shuffle.imbalance", vt.ShuffleImbalance, "ratio")
	r.set("spill.bytes_out", float64(last.spill.SpillBytes), "B")
	r.set("spill.bytes_in", float64(last.spill.RestoreBytes), "B")
	r.set("spill.stalls", float64(last.spill.Stalls), "count")
	r.set("write.ms", tr.selfMS("write"), "ms")
	wb, err := dirBytes(p.out)
	if err != nil {
		return err
	}
	r.set("write.bytes", float64(wb), "B")
	r.set("trace.overhead_frac", median(tracedWalls)/median(walls)-1, "fraction")
	r.set("trace.unattributed_frac", tr.unattributed("pass"), "fraction")
	return nil
}

func medianAllocMB(spans []span) float64 {
	var xs []float64
	for _, s := range spans {
		xs = append(xs, float64(s.AllocBytes)/1e6)
	}
	return median(xs)
}

// repeats returns n, or 1 in the self-tests' tiny mode.
func repeats(o options, n int) int {
	if o.tiny {
		return 1
	}
	return n
}
