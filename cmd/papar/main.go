// Command papar is the PaPar front end: it takes the two configuration
// files the paper defines as the user interface — an input data description
// (Fig. 4/5) and a workflow description (Fig. 8/10) — generates the
// parallel partitioner, and runs it on the simulated cluster.
//
// Usage:
//
//	papar -input configs/blast_db.xml -workflow configs/blast_partition.xml \
//	      -data env_nr.db -out parts/ -nodes 16 \
//	      -arg num_partitions=32 [-arg k=v ...]
//
// Flags:
//
//	-plan        print the compiled job plan and exit (no execution)
//	-optimize    run the plan optimizer before executing: fuse adjacent
//	             shuffle-free jobs, elide compatible shuffles, and bind any
//	             "auto" distribution policy / split threshold from sampled
//	             input statistics (byte-identical output, lower makespan)
//	-explain     print the optimizer's rewrite report (rules fired, cost
//	             model scores, predicted makespans); implies -optimize
//	-emit-go     print the generated Go source and exit
//	-faults      seeded fault plan (crash/drop/dup/delay/corrupt/straggle/
//	             ckptloss/enospc/tornwrite/diskrot/slowdisk); the run
//	             checkpoints at job boundaries (replicated over buddy hosts)
//	             and recovers from rank failures
//	-mem-budget  per-rank resident memory cap in bytes; cold keyval pages
//	             spill to a CRC-framed disk tier and the run stays
//	             byte-identical to the in-memory one
//	-spill-dir   where the spill runs live (default: a temp dir)
//	-compress    pack shuffle frames with the §III-D CSC codec before they
//	             hit the wire (lossless, inside the CRC envelope); also
//	             enabled by PAPAR_SHUFFLE_COMPRESS=1
//	-delta-batches  ingest incrementally: the head of the input seeds a
//	             resident engine, the tail arrives as N append-only delta
//	             batches, and only moved rows travel; the final partitions
//	             are byte-identical to the from-scratch run (mrmpi backend)
//	-delta-frac  with -delta-batches: fraction of the input rows appended
//	             per batch (default 0.05)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/faults"
	"repro/internal/hadoop"
	"repro/internal/incremental"
	"repro/internal/mrmpi"
	"repro/internal/obsv"
	"repro/internal/planopt"
	"repro/internal/sigflush"
	"repro/internal/vtime"
)

// argList collects repeated -arg name=value flags.
type argList map[string]string

func (a argList) String() string { return fmt.Sprint(map[string]string(a)) }

func (a argList) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("-arg wants name=value, got %q", s)
	}
	a[name] = value
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "papar:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inputCfgs  stringList
		workflow   = flag.String("workflow", "", "workflow configuration file (required)")
		data       = flag.String("data", "", "input data file to partition (required unless -plan/-emit-go)")
		out        = flag.String("out", "", "output directory for part-NNNNN files")
		nodes      = flag.Int("nodes", 16, "simulated compute nodes (2 ranks each)")
		backend    = flag.String("backend", "mrmpi", `execution backend: "mrmpi" (simulated cluster) or "hadoop" (disk-based engine)`)
		workDir    = flag.String("workdir", "", "working directory for the hadoop backend (default: temp dir)")
		planOnly   = flag.Bool("plan", false, "print the compiled plan and exit")
		optimize   = flag.Bool("optimize", false, "rewrite the plan with the cost-based optimizer before executing (fusion, shuffle elision, auto policy binding)")
		explain    = flag.Bool("explain", false, "print the optimizer's rewrite report (implies -optimize)")
		emitGo     = flag.Bool("emit-go", false, "print the generated Go program and exit")
		traceN     = flag.Int("trace", 0, "print the first N transport events of the run (mrmpi backend)")
		faultSpec  = flag.String("faults", "", `fault plan "seed:event,..." (e.g. "7:crash=3@2ms,drop=5%,corrupt=2%,ckptloss=3,enospc=30%,tornwrite=20%,diskrot=2%,slowdisk=1x4"); runs resiliently (mrmpi backend)`)
		memBudget  = flag.Int64("mem-budget", 0, "per-rank resident memory cap in bytes; 0 = unlimited, cold pages spill to disk otherwise (mrmpi backend)")
		compress   = flag.Bool("compress", false, "compress shuffle frames with the §III-D CSC codec inside the integrity envelope (mrmpi backend; also PAPAR_SHUFFLE_COMPRESS=1)")
		spillDir   = flag.String("spill-dir", "", "directory for spilled pages (default: temp dir, removed on exit); with -faults the spill tier is replicated across buddy paths")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write machine-readable run metrics (phase durations, per-rank load, imbalance) as JSON to this file")
		timelineW  = flag.Int("timeline", 0, "print a per-rank text timeline of the run, N columns wide")
		deltaN     = flag.Int("delta-batches", 0, "ingest incrementally: seed with the head of the input, append the tail in N delta batches through the resident engine; partitions stay byte-identical to the from-scratch run (mrmpi backend)")
		deltaFrac  = flag.Float64("delta-frac", 0.05, "with -delta-batches: fraction of the input rows appended per batch, in (0, 1)")
		runtimeArg = argList{}
	)
	flag.Var(&inputCfgs, "input", "input data description file (repeatable)")
	flag.Var(runtimeArg, "arg", "workflow argument name=value (repeatable)")
	flag.Parse()

	if *workflow == "" || len(inputCfgs) == 0 {
		return fmt.Errorf("-workflow and at least one -input are required")
	}
	fw := core.NewFramework()
	for _, path := range inputCfgs {
		if _, err := fw.RegisterInputFile(path); err != nil {
			return err
		}
	}
	plan, err := fw.CompileWorkflowFile(*workflow, runtimeArg)
	if err != nil {
		return err
	}
	var rewrite *planopt.Rewrite
	if *optimize || *explain {
		opts := planopt.Options{Ranks: *nodes * 2}
		if *data != "" {
			// Sample the actual input so auto policies bind against the data
			// the run will see; without -data only structural rules fire.
			opts.Stats, err = planopt.CollectStatsFromFile(plan, *data, 1)
			if err != nil {
				return err
			}
		}
		rewrite, err = planopt.Optimize(plan, opts)
		if err != nil {
			return err
		}
		if *explain {
			fmt.Print(rewrite.Explain())
		}
		plan = rewrite.After
	}
	if *planOnly {
		fmt.Print(plan.Describe())
		return nil
	}
	if *emitGo {
		fmt.Print(plan.EmitGo("main"))
		return nil
	}
	if *data == "" {
		if *explain {
			return nil
		}
		return fmt.Errorf("-data is required to execute the partitioner")
	}
	obs := newRecorder(*traceOut, *metricsOut, *timelineW)
	if obs != nil {
		// An interrupted run still flushes the partial trace/metrics: what
		// the recorder has seen up to the signal is written, not discarded.
		sigflush.Register(func() {
			fmt.Fprintln(os.Stderr, "papar: interrupted, flushing observability artifacts")
			emitObservability(obs, *traceOut, *metricsOut, 0)
		})
	}
	switch *backend {
	case "mrmpi":
		if *compress {
			mrmpi.SetShuffleCompress(true)
		}
		cl := cluster.New(cluster.DefaultConfig(*nodes))
		cl.SetObserver(obs)
		if *traceN > 0 {
			cl.EnableTrace()
		}
		execOpts := core.ExecOptions{Spill: core.SpillOptions{
			MemBudget: *memBudget,
			Dir:       *spillDir,
			// Under a fault plan the spill tier replicates each run across
			// both paths, so ENOSPC and rot can fail over.
			Replicate: *faultSpec != "",
		}}
		if *deltaN > 0 {
			if err := runDeltaIngest(cl, plan, *data, *out, execOpts, *faultSpec, *deltaN, *deltaFrac); err != nil {
				return err
			}
			return emitObservability(obs, *traceOut, *metricsOut, *timelineW)
		}
		var res *core.Result
		if *faultSpec != "" {
			fp, err := faults.Parse(*faultSpec)
			if err != nil {
				return err
			}
			cl.SetFaultPlan(fp)
			var rep *core.RecoveryReport
			res, rep, err = core.ExecuteResilientOpts(cl, plan, core.Input{Path: *data}, nil, execOpts)
			if err != nil {
				return err
			}
			fmt.Printf("fault plan %s: failed ranks %v, %d survivors, %d recovery rounds, %d checkpoint bytes (%d writes, %d replica failovers)\n",
				fp, rep.Failed, len(rep.Survivors), rep.Rounds, rep.CheckpointBytes, rep.CheckpointWrites, rep.CheckpointFailovers)
			stats := cl.Stats()
			if stats.CorruptInjected != stats.CorruptDetected {
				return fmt.Errorf("silent corruption: %d injected, only %d detected", stats.CorruptInjected, stats.CorruptDetected)
			}
			if stats.Retransmits > 0 || stats.CorruptInjected > 0 {
				fmt.Printf("transport integrity: %d corruptions injected, %d detected, %d retransmitted delivery attempts\n",
					stats.CorruptInjected, stats.CorruptDetected, stats.Retransmits)
			}
		} else if res, err = core.ExecuteOpts(cl, plan, core.Input{Path: *data}, execOpts); err != nil {
			return err
		}
		if *traceN > 0 {
			fmt.Printf("transport trace (first %d events):\n%s", *traceN, cl.RenderTrace(*traceN))
		}
		fmt.Printf("workflow %s: %d partitions in %v virtual time (%d bytes shuffled, %d messages)\n",
			plan.WorkflowID, len(res.Partitions), res.Makespan, res.ShuffleBytes, res.ShuffleMessages)
		reportOptimizer(obs, rewrite, res.Makespan)
		if *memBudget > 0 {
			sp := cl.Stats().Spill
			fmt.Printf("spill tier (budget %d B/rank): %d pages out (%d B), %d pages back (%d B), %d retries, %d failovers, %d rotted frames caught, %d stalls (%d B over)\n",
				*memBudget, sp.SpillPages, sp.SpillBytes, sp.RestorePages, sp.RestoreBytes,
				sp.Retries, sp.Failovers, sp.RotDetected, sp.Stalls, sp.StallBytes)
		}
		for i, m := range res.JobMakespans {
			fmt.Printf("  after job %d (%s): %v\n", i+1, plan.Jobs[i].JobID(), m)
		}
		if *out != "" {
			if err := core.WritePartitions(plan, res, *out); err != nil {
				return err
			}
			fmt.Printf("wrote %d partition files under %s\n", len(res.Partitions), *out)
		}
		return emitObservability(obs, *traceOut, *metricsOut, *timelineW)
	case "hadoop":
		if *faultSpec != "" {
			return fmt.Errorf("-faults is only supported by the mrmpi backend")
		}
		if *deltaN > 0 {
			return fmt.Errorf("-delta-batches is only supported by the mrmpi backend")
		}
		if *compress {
			return fmt.Errorf("-compress is only supported by the mrmpi backend")
		}
		wd := *workDir
		if wd == "" {
			var err error
			wd, err = os.MkdirTemp("", "papar-hadoop")
			if err != nil {
				return err
			}
			defer os.RemoveAll(wd)
		}
		res, err := hadoop.ExecutePlanObserved(plan, *data, wd, *nodes*2, obs)
		if err != nil {
			return err
		}
		total := int64(0)
		for _, c := range res.JobCounters {
			total += c.ShuffleBytes
		}
		fmt.Printf("workflow %s on hadoop backend: %d partitions, %d jobs, %d bytes spilled\n",
			plan.WorkflowID, len(res.Partitions), len(res.JobCounters), total)
		if *out != "" {
			cres := &core.Result{Partitions: res.Partitions}
			if err := core.WritePartitions(plan, cres, *out); err != nil {
				return err
			}
			fmt.Printf("wrote %d partition files under %s\n", len(res.Partitions), *out)
		}
		return emitObservability(obs, *traceOut, *metricsOut, *timelineW)
	default:
		return fmt.Errorf("unknown backend %q (mrmpi, hadoop)", *backend)
	}
}

// runDeltaIngest is the -delta-batches path: the head of the input seeds a
// resident incremental engine, the tail arrives as append-only delta batches
// in file order, and only the rows whose partition assignment changes travel
// over the shuffle. Because the final resident multiset equals the whole file
// in arrival order, the written partitions are byte-identical to a
// from-scratch run — the CI incremental-identity job diffs the two trees.
// With -faults the engine's runs take the resilient path under the plan.
func runDeltaIngest(cl *cluster.Cluster, plan *core.Plan, data, out string, execOpts core.ExecOptions, faultSpec string, batches int, frac float64) error {
	if frac <= 0 || frac >= 1 {
		return fmt.Errorf("-delta-frac %g out of range (0, 1)", frac)
	}
	rows, err := readAllRows(plan, data)
	if err != nil {
		return err
	}
	appendN := int(frac * float64(len(rows)))
	if appendN < 1 {
		appendN = 1
	}
	tail := appendN * batches
	if tail >= len(rows) {
		return fmt.Errorf("-delta-batches %d x -delta-frac %g swallows the whole input (%d rows)", batches, frac, len(rows))
	}
	if faultSpec != "" {
		fp, err := faults.Parse(faultSpec)
		if err != nil {
			return err
		}
		cl.SetFaultPlan(fp)
		defer cl.SetFaultPlan(nil)
	}
	base := len(rows) - tail
	eng, err := incremental.New(incremental.Config{Plan: plan, Cluster: cl, Exec: execOpts}, rows[:base])
	if err != nil {
		return err
	}
	fmt.Printf("incremental ingest (%s model): seeded %d rows into %d partitions in %v; %d batches of %d rows to go\n",
		eng.ModelName(), eng.Len(), eng.NumPartitions(), eng.Baseline().Makespan, batches, appendN)
	var deltaTime vtime.Duration
	moved := 0
	for k := 0; k < batches; k++ {
		lo := base + k*appendN
		rep, err := eng.ApplyDelta(incremental.Batch{Appends: rows[lo : lo+appendN]}, incremental.ApplyOptions{})
		if err != nil {
			return fmt.Errorf("delta batch %d: %w", k, err)
		}
		deltaTime += rep.Makespan
		moved += rep.MovedRows
		line := fmt.Sprintf("  batch %d: +%d rows, %d moved, %v", k, appendN, rep.MovedRows, rep.Makespan)
		if rep.Recovery != nil && len(rep.Recovery.Failed) > 0 {
			line += fmt.Sprintf(" (recovered from rank failures %v)", rep.Recovery.Failed)
		}
		fmt.Println(line)
	}
	fmt.Printf("incremental ingest: %d rows resident, %d moved across %d batches in %v virtual time (seed cost %v)\n",
		eng.Len(), moved, batches, deltaTime, eng.Baseline().Makespan)
	if out != "" {
		cres := &core.Result{Partitions: eng.Partitions()}
		if err := core.WritePartitions(plan, cres, out); err != nil {
			return err
		}
		fmt.Printf("wrote %d partition files under %s\n", eng.NumPartitions(), out)
	}
	return nil
}

// readAllRows streams the whole input file into memory in record order (the
// same global order the from-scratch executor sees).
func readAllRows(plan *core.Plan, path string) ([]core.Row, error) {
	splits, err := dataformat.Splits(plan.InputSchema, path, 1)
	if err != nil {
		return nil, err
	}
	var rows []core.Row
	for _, sp := range splits {
		err := dataformat.StreamSplit(plan.InputSchema, sp, func(rec dataformat.Record) error {
			rows = append(rows, core.Row{Values: rec.Values})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// reportOptimizer prints the optimizer's prediction against the measured
// makespan and folds both into the metrics, making prediction error a
// first-class observable of every optimized run.
func reportOptimizer(obs *obsv.Recorder, rw *planopt.Rewrite, actual vtime.Duration) {
	if rw == nil {
		return
	}
	if rw.Predicted.AfterNS > 0 && actual > 0 {
		errPct := 100 * (float64(rw.Predicted.AfterNS)/float64(actual) - 1)
		fmt.Printf("optimizer: %d rules fired; predicted makespan %v vs measured %v (%+.1f%%)\n",
			len(rw.Fired), vtime.Duration(rw.Predicted.AfterNS), actual, errPct)
	} else {
		fmt.Printf("optimizer: %d rules fired\n", len(rw.Fired))
	}
	if obs == nil {
		return
	}
	obs.SetCount("planopt_rules_fired", int64(len(rw.Fired)))
	if rw.Predicted.AfterNS > 0 {
		obs.SetCount("planopt_predicted_makespan_ns", rw.Predicted.AfterNS)
	}
	if actual > 0 {
		obs.SetCount("planopt_actual_makespan_ns", int64(actual))
	}
}

// newRecorder returns a span/metric recorder when any observability output
// was requested, nil otherwise (a nil recorder disables all instrumentation).
func newRecorder(traceOut, metricsOut string, timelineW int) *obsv.Recorder {
	if traceOut == "" && metricsOut == "" && timelineW <= 0 {
		return nil
	}
	return obsv.NewRecorder()
}

// emitObservability writes the requested trace/metrics artifacts and prints
// the text timeline.
func emitObservability(obs *obsv.Recorder, traceOut, metricsOut string, timelineW int) error {
	if obs == nil {
		return nil
	}
	if traceOut != "" {
		if err := obs.WriteChromeTrace(traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", traceOut)
	}
	if metricsOut != "" {
		if err := obs.Metrics().WriteJSON(metricsOut); err != nil {
			return err
		}
		fmt.Printf("wrote run metrics to %s\n", metricsOut)
	}
	if timelineW > 0 {
		fmt.Print(obs.Timeline(timelineW))
	}
	return nil
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
