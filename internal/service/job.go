package service

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/blast"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/planopt"
	"repro/internal/vtime"
)

// DatasetSpec names a deterministic synthetic input: (kind, profile, scale,
// seed) fully determine the rows, which is what makes a journal replay able
// to re-run a job and land on the same partition bytes.
type DatasetSpec struct {
	// Kind is "blast" or "graph".
	Kind string `json:"kind"`
	// Profile is a generator profile: env_nr/nr (blast), google/pokec/
	// livejournal (graph).
	Profile string `json:"profile"`
	// Scale is the fraction of the paper-size dataset (0 < Scale <= 1).
	Scale float64 `json:"scale"`
	// Seed drives generation.
	Seed int64 `json:"seed"`
}

func (d DatasetSpec) key() string {
	return fmt.Sprintf("%s/%s/%g/%d", d.Kind, d.Profile, d.Scale, d.Seed)
}

// JobSpec is one partitioning request. A spec is self-contained and
// deterministic: workflow + dataset + args reproduce the same partitions on
// every run, so retries and crash-recovery re-runs are exactly-once in
// effect — the bytes cannot differ, only the work can repeat.
type JobSpec struct {
	// Kind selects the job's verb. "" and "partition" run the workflow from
	// scratch; "delta" applies DeltaSpec batches against the dataset's
	// resident incremental engine; "repartition" and "coalesce" resize the
	// resident engine to NewPartitions.
	Kind string `json:"kind,omitempty"`
	// Workflow names an embedded workflow config: blast_partition,
	// blast_partition_block, or hybrid_cut.
	Workflow string `json:"workflow"`
	// Dataset is the input to partition.
	Dataset DatasetSpec `json:"dataset"`
	// Delta parameterizes kind "delta". The batches themselves are
	// synthesized deterministically from (Delta.Seed, batch index, resident
	// state), so journal replay re-derives identical batches.
	Delta *DeltaSpec `json:"delta,omitempty"`
	// NewPartitions is the target partition count for kind "repartition" or
	// "coalesce" (coalesce additionally requires it to divide the current
	// count).
	NewPartitions int `json:"new_partitions,omitempty"`
	// Args override workflow arguments (num_partitions, num_reducers,
	// threshold).
	Args map[string]string `json:"args,omitempty"`
	// Tenant is the fair-share accounting bucket (default "default").
	Tenant string `json:"tenant,omitempty"`
	// IdempotencyKey deduplicates client retries: a resubmission with a key
	// the server has seen returns the existing job instead of enqueueing a
	// second one. Empty means no deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// DeadlineMS bounds the job's wall-clock life from admission (queue wait
	// included); past it a queued job fails fast and a running one is
	// cooperatively canceled. 0 uses the server's deadline budget.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Faults, when set, runs the job resiliently under this injected fault
	// plan ("seed:crash=1@1ms,drop=5%,..."); each retry attempt derives a
	// fresh seed so probabilistic faults re-roll.
	Faults string `json:"faults,omitempty"`
	// FailAttempts is the service-level fault hook: attempts numbered below
	// it fail with an injected error before touching the cluster. It is how
	// the retry/backoff path is exercised deterministically.
	FailAttempts int `json:"fail_attempts,omitempty"`
	// Persist writes the final partitions under the daemon's data dir
	// (jobs/<id>/part-NNNNN) so clients — and the crash-restart smoke test —
	// can fetch the actual bytes, not just the checksum.
	Persist bool `json:"persist,omitempty"`
}

// DeltaSpec shapes the synthetic delta stream of a kind="delta" job. Each
// batch deletes DeleteFrac and appends AppendFrac of the resident row count,
// drawing rows and victims from a PRNG seeded by (Seed, batch index) — a pure
// function of journal history, which is what makes crash-recovery replay land
// on byte-identical partitions.
type DeltaSpec struct {
	// Batches is the number of delta batches to apply (1..64).
	Batches int `json:"batches"`
	// AppendFrac is the per-batch append volume as a fraction of the
	// resident rows (0..1).
	AppendFrac float64 `json:"append_frac"`
	// DeleteFrac is the per-batch delete volume as a fraction of the
	// resident rows (0..1).
	DeleteFrac float64 `json:"delete_frac"`
	// Seed drives batch synthesis.
	Seed int64 `json:"seed"`
}

// workflowFiles maps a workflow name to its embedded input + workflow
// configs and per-workflow default args.
var workflowFiles = map[string]struct {
	input    string
	workflow string
	// inputArg is the workflow's declared input-path argument name
	// (blast workflows say input_path, hybrid_cut says input_file).
	inputArg string
	defaults map[string]string
}{
	"blast_partition": {"blast_db.xml", "blast_partition.xml", "input_path",
		map[string]string{"num_partitions": "16", "num_reducers": ""}},
	"blast_partition_block": {"blast_db.xml", "blast_partition_block.xml", "input_path",
		map[string]string{"num_partitions": "16"}},
	"hybrid_cut": {"graph_edge.xml", "hybrid_cut.xml", "input_file",
		map[string]string{"num_partitions": "16", "threshold": "100"}},
}

// WorkflowNames lists the workflows the service accepts, sorted.
func WorkflowNames() []string {
	names := make([]string, 0, len(workflowFiles))
	for n := range workflowFiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate rejects malformed specs with a client-attributable error.
func (s *JobSpec) Validate() error {
	if _, ok := workflowFiles[s.Workflow]; !ok {
		return fmt.Errorf("unknown workflow %q (valid workflows: %v)", s.Workflow, WorkflowNames())
	}
	switch s.Dataset.Kind {
	case "blast":
		switch s.Dataset.Profile {
		case "env_nr", "nr":
		default:
			return fmt.Errorf("unknown blast profile %q (env_nr, nr)", s.Dataset.Profile)
		}
	case "graph":
		switch s.Dataset.Profile {
		case "google", "pokec", "livejournal":
		default:
			return fmt.Errorf("unknown graph profile %q (google, pokec, livejournal)", s.Dataset.Profile)
		}
	default:
		return fmt.Errorf("unknown dataset kind %q (blast, graph)", s.Dataset.Kind)
	}
	if kind, wf := s.Dataset.Kind, s.Workflow; (kind == "blast") != (wf != "hybrid_cut") {
		return fmt.Errorf("workflow %s cannot partition a %s dataset", wf, kind)
	}
	if s.Dataset.Scale <= 0 || s.Dataset.Scale > 1 {
		return fmt.Errorf("dataset scale %g out of range (0, 1]", s.Dataset.Scale)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("negative deadline %d ms", s.DeadlineMS)
	}
	for k := range s.Args {
		switch k {
		case "num_partitions", "num_reducers", "threshold":
		default:
			return fmt.Errorf("unknown workflow argument %q", k)
		}
	}
	switch s.Kind {
	case "", "partition":
		if s.Delta != nil {
			return fmt.Errorf("kind %q takes no delta spec", s.Kind)
		}
		if s.NewPartitions != 0 {
			return fmt.Errorf("kind %q takes no new_partitions", s.Kind)
		}
	case "delta":
		if s.Delta == nil {
			return fmt.Errorf("delta jobs need a delta spec")
		}
		if s.Delta.Batches < 1 || s.Delta.Batches > 64 {
			return fmt.Errorf("delta batches %d out of range [1, 64]", s.Delta.Batches)
		}
		if s.Delta.AppendFrac < 0 || s.Delta.AppendFrac > 1 {
			return fmt.Errorf("delta append_frac %g out of range [0, 1]", s.Delta.AppendFrac)
		}
		if s.Delta.DeleteFrac < 0 || s.Delta.DeleteFrac > 1 {
			return fmt.Errorf("delta delete_frac %g out of range [0, 1]", s.Delta.DeleteFrac)
		}
		if s.Delta.AppendFrac == 0 && s.Delta.DeleteFrac == 0 {
			return fmt.Errorf("delta jobs need append_frac or delete_frac > 0")
		}
		if s.NewPartitions != 0 {
			return fmt.Errorf("delta jobs take no new_partitions")
		}
	case "repartition", "coalesce":
		if s.NewPartitions < 1 {
			return fmt.Errorf("%s jobs need new_partitions >= 1", s.Kind)
		}
		if s.Delta != nil {
			return fmt.Errorf("%s jobs take no delta spec", s.Kind)
		}
	default:
		return fmt.Errorf("unknown job kind %q (partition, delta, repartition, coalesce)", s.Kind)
	}
	return nil
}

// canonicalArgs resolves the workflow's argument set (defaults + overrides)
// in deterministic order; the string doubles as the plan-cache key suffix.
func (s *JobSpec) canonicalArgs() (map[string]string, string, error) {
	wf := workflowFiles[s.Workflow]
	args := map[string]string{}
	for k, v := range wf.defaults {
		args[k] = v
	}
	for k, v := range s.Args {
		if _, ok := args[k]; !ok {
			return nil, "", fmt.Errorf("workflow %s takes no argument %q", s.Workflow, k)
		}
		if _, err := strconv.Atoi(v); err != nil {
			return nil, "", fmt.Errorf("argument %s=%q is not an integer", k, v)
		}
		args[k] = v
	}
	// num_reducers defaults to num_partitions (the experiments' convention:
	// saturate the reducers).
	if v, ok := args["num_reducers"]; ok && v == "" {
		args["num_reducers"] = args["num_partitions"]
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sig := s.Workflow
	for _, k := range keys {
		sig += "|" + k + "=" + args[k]
	}
	return args, sig, nil
}

// runtime is the resident, shareable part of a job: the compiled plan, the
// generated dataset, and the sampled input statistics feeding the admission
// cost model. One runtime serves every job with the same (workflow, args,
// dataset) triple — this is the "parsed configs and generated datasets stay
// resident" half of the daemon.
type runtime struct {
	plan  *core.Plan
	rows  []core.Row
	stats *planopt.InputStats
	// predicted caches the cost model's makespan per rank count.
	predicted map[int]vtime.Duration
}

// runtimes caches compiled plans + datasets, guarded by mu (jobs resolve
// their runtime at admission, concurrently with HTTP traffic).
type runtimes struct {
	mu    sync.Mutex
	byKey map[string]*runtime
}

// resolve returns (building if needed) the runtime for spec.
func (rs *runtimes) resolve(spec *JobSpec) (*runtime, error) {
	args, sig, err := spec.canonicalArgs()
	if err != nil {
		return nil, err
	}
	key := sig + "@" + spec.Dataset.key()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rt, ok := rs.byKey[key]; ok {
		return rt, nil
	}

	wf := workflowFiles[spec.Workflow]
	f := core.NewFramework()
	if _, err := f.RegisterInputConfig(repro.Config(wf.input)); err != nil {
		return nil, err
	}
	compileArgs := map[string]string{wf.inputArg: "mem://in", "output_path": "mem://out"}
	for k, v := range args {
		compileArgs[k] = v
	}
	plan, err := f.CompileWorkflowConfig(repro.Config(wf.workflow), compileArgs)
	if err != nil {
		return nil, err
	}

	var rows []core.Row
	switch spec.Dataset.Kind {
	case "blast":
		p := blast.EnvNR()
		if spec.Dataset.Profile == "nr" {
			p = blast.NR()
		}
		rows = core.RecordsToRows(blast.Generate(p, spec.Dataset.Scale, spec.Dataset.Seed).Records())
	case "graph":
		var p graph.Profile
		switch spec.Dataset.Profile {
		case "google":
			p = graph.Google()
		case "pokec":
			p = graph.Pokec()
		case "livejournal":
			p = graph.LiveJournal()
		}
		rows = core.RecordsToRows(graph.EdgesToRows(graph.Generate(p, spec.Dataset.Scale, spec.Dataset.Seed).Edges))
	}

	stats, err := planopt.CollectStats(plan, [][]core.Row{rows}, spec.Dataset.Seed)
	if err != nil {
		return nil, err
	}
	rt := &runtime{plan: plan, rows: rows, stats: stats, predicted: map[int]vtime.Duration{}}
	if rs.byKey == nil {
		rs.byKey = map[string]*runtime{}
	}
	rs.byKey[key] = rt
	return rt, nil
}

// predict returns the cost model's virtual makespan for this runtime on the
// given rank count (cached — admission runs it on every submit).
func (rs *runtimes) predict(rt *runtime, ranks int) vtime.Duration {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if d, ok := rt.predicted[ranks]; ok {
		return d
	}
	d := planopt.PredictMakespan(rt.plan, rt.stats, ranks)
	rt.predicted[ranks] = d
	return d
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// StateQueued: admitted, journaled, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a resident cluster.
	StateRunning JobState = "running"
	// StateDone: completed; Checksum/MakespanNS are final.
	StateDone JobState = "done"
	// StateFailed: failed permanently (retries exhausted, deadline, or
	// invalid at execution time).
	StateFailed JobState = "failed"
)

// Job is one admitted request and its progress. Fields are guarded by the
// server's mutex; the JSON shape is the wire status object.
type Job struct {
	ID       string   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	// Checksum is the partition fingerprint (state done).
	Checksum uint64 `json:"checksum,omitempty"`
	// MakespanNS is the virtual makespan of the successful run.
	MakespanNS int64 `json:"makespan_ns,omitempty"`
	// MovedRows counts the rows the incremental engine actually shipped for
	// a delta/repartition job (state done, incremental kinds only).
	MovedRows int `json:"moved_rows,omitempty"`
	// Error is the permanent failure reason (state failed).
	Error string `json:"error,omitempty"`
	// LatencyMS is wall-clock admission-to-terminal latency.
	LatencyMS float64 `json:"latency_ms"`
	// Recovered marks a job re-run after a journal replay.
	Recovered bool `json:"recovered,omitempty"`

	// key is the effective idempotency key ("" = none).
	key string
	// rt is resolved at admission and reused across attempts.
	rt *runtime
	// predicted is the admission cost-model estimate (virtual time).
	predicted vtime.Duration
	// accepted/deadline bound the job's wall-clock life.
	accepted time.Time
	deadline time.Time
	// applied counts delta batches already committed AND journaled; retries
	// and crash recovery resume after them, never re-applying a batch.
	applied int
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool { return j.State == StateDone || j.State == StateFailed }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
