package hadoop

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/keyval"
	"repro/internal/obsv"
)

// This file lowers a compiled PaPar plan onto the Hadoop-style engine — the
// paper's "generate Hadoop jobs for the workflow" path. Every basic
// operator becomes one job (Fig. 9's j1/j2 structure); the job client
// performs the same preparatory work a Hadoop driver would (sampling for
// the total-order partitioner, counting records for offset-aware
// distribution policies).

// PlanResult is the outcome of running a plan on the Hadoop backend.
type PlanResult struct {
	// Partitions mirror core.Result.Partitions: final rows per partition,
	// input arity restored.
	Partitions [][]core.Row
	// JobCounters holds each executed job's counters, in job order.
	JobCounters []*Result
}

// planState tracks the dataset between jobs: a list of KV files whose
// values are tagged entries, globally ordered across files.
type planState struct {
	engine  *Engine
	plan    *core.Plan
	reduces int
	// files is the current main-line dataset.
	files []string
	// side holds split branch outputs by name.
	side map[string][]string
	// schema tracks the evolving row schema.
	schema *core.RowSchema
	res    *PlanResult
}

// ExecutePlan runs a compiled plan on the Hadoop backend. inputPath is the
// data file (in the plan's input format); workDir hosts all job
// directories; numReduce is the per-job reducer count.
func ExecutePlan(plan *core.Plan, inputPath, workDir string, numReduce int) (*PlanResult, error) {
	return ExecutePlanObserved(plan, inputPath, workDir, numReduce, nil)
}

// ExecutePlanObserved is ExecutePlan with a span/metric recorder attached to
// the engine. The Hadoop backend has no virtual timeline, so its spans carry
// wall-clock durations (task index as the rank); obs may be nil.
func ExecutePlanObserved(plan *core.Plan, inputPath, workDir string, numReduce int, obs *obsv.Recorder) (*PlanResult, error) {
	if numReduce <= 0 {
		numReduce = 4
	}
	engine := NewEngine(workDir)
	engine.Obs = obs
	st := &planState{
		engine:  engine,
		plan:    plan,
		reduces: numReduce,
		side:    map[string][]string{},
		schema:  core.NewRowSchema(plan.InputSchema),
		res:     &PlanResult{},
	}
	// Job 0 (implicit): convert the record file into tagged-entry KV files
	// so every subsequent job shares one input contract. Map-only keeps
	// split order, so global record order is preserved.
	ingest := &Job{
		Name:  "ingest",
		Input: Input{Schema: plan.InputSchema, Paths: []string{inputPath}},
		Map: func(key, value []byte, emit Emit) error {
			var recs []dataformat.Record
			var err error
			if plan.InputSchema.Binary {
				recs, err = dataformat.DecodeBinary(plan.InputSchema, value)
			} else {
				recs, err = dataformat.DecodeText(plan.InputSchema, value)
			}
			if err != nil {
				return err
			}
			var buf []byte
			for _, r := range recs {
				buf = core.AppendEntry(buf[:0], core.Row{Values: r.Values}, nil)
				emit(key, buf)
			}
			return nil
		},
	}
	ir, err := st.engine.Run(ingest)
	if err != nil {
		return nil, err
	}
	st.res.JobCounters = append(st.res.JobCounters, ir)
	st.files = ir.Outputs[0]

	for _, job := range plan.Jobs {
		if err := st.runJob(job); err != nil {
			return nil, fmt.Errorf("hadoop: job %s: %w", job.JobID(), err)
		}
	}
	if st.res.Partitions == nil {
		return nil, fmt.Errorf("hadoop: workflow %q has no distribute job; nothing to output", plan.WorkflowID)
	}
	return st.res, nil
}

// runJob dispatches one plan job. Fused jobs (from the plan optimizer) run
// their inner jobs in sequence: the Hadoop backend still launches one engine
// job per inner operator — it has no launch-overhead ledger to save — but
// accepting them keeps optimized plans portable across backends.
func (st *planState) runJob(job core.Job) error {
	switch j := job.(type) {
	case *core.SortJob:
		return st.runSort(j)
	case *core.GroupJob:
		return st.runGroup(j)
	case *core.SplitJob:
		return st.runSplit(j)
	case *core.DistributeJob:
		return st.runDistribute(j)
	case *core.FusedJob:
		for _, inner := range j.Inner {
			if err := st.runJob(inner); err != nil {
				return fmt.Errorf("fused %s: %w", j.ID, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("hadoop: job type %T is not supported by the Hadoop backend", job)
	}
}

// sampleSplitters scans the current dataset and derives numReduce-1 key
// splitters — the client-side sampling pass of Hadoop's total-order
// partitioner (and PaPar's §III-D sampling).
func (st *planState) sampleSplitters(col int, desc bool) ([][]byte, error) {
	const cap = 4096
	rng := rand.New(rand.NewSource(1))
	var sample [][]byte
	seen := 0
	for _, path := range st.files {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("hadoop: %w", err)
		}
		l, err := keyval.Decode(buf)
		if err != nil {
			return nil, err
		}
		dec := core.NewRowDecoder(l.Len(), 0)
		for i := 0; i < l.Len(); i++ {
			row, _, err := dec.Entry(l.Value(i))
			if err != nil {
				return nil, err
			}
			key := sortKeyBytes(row, col, desc)
			seen++
			if len(sample) < cap {
				sample = append(sample, key)
			} else if j := rng.Intn(seen); j < cap {
				sample[j] = key
			}
		}
	}
	sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
	var out [][]byte
	for b := 1; b < st.reduces; b++ {
		if len(sample) == 0 {
			out = append(out, []byte{})
			continue
		}
		idx := b * len(sample) / st.reduces
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		out = append(out, sample[idx])
	}
	return out, nil
}

func sortKeyBytes(row core.Row, col int, desc bool) []byte {
	key := core.SortableKeyBytes(row.Values[col])
	if desc {
		for i := range key {
			key[i] ^= 0xFF
		}
	}
	return key
}

func locateBytes(splitters [][]byte, key []byte) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(splitters[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (st *planState) runSort(j *core.SortJob) error {
	col := st.schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("sort key %q missing from schema %v", j.KeyCol, st.schema.Fields)
	}
	splitters, err := st.sampleSplitters(col, j.Descending)
	if err != nil {
		return err
	}
	job := &Job{
		Name:           "sort-" + j.ID,
		Input:          Input{Paths: st.files},
		NumReduceTasks: st.reduces,
		Map: func(key, value []byte, emit Emit) error {
			row, _, err := core.DecodeEntry(value)
			if err != nil {
				return err
			}
			emit(sortKeyBytes(row, col, j.Descending), value)
			return nil
		},
		Partition: func(key []byte, numReduce int) int { return locateBytes(splitters, key) },
		// identity reduce keeps key order; stability comes from the
		// engine's stable merge.
	}
	r, err := st.engine.Run(job)
	if err != nil {
		return err
	}
	st.res.JobCounters = append(st.res.JobCounters, r)
	st.files = r.Outputs[0]
	return nil
}

func (st *planState) runGroup(j *core.GroupJob) error {
	col := st.schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("group key %q missing from schema %v", j.KeyCol, st.schema.Fields)
	}
	valueIdx := make([]int, len(j.AddOns))
	outSchema := st.schema
	var err error
	for i, a := range j.AddOns {
		valueIdx[i] = -1
		if a.ValueCol != "" {
			valueIdx[i] = st.schema.Index(a.ValueCol)
			if valueIdx[i] < 0 {
				return fmt.Errorf("add-on value column %q missing", a.ValueCol)
			}
		}
		outSchema, err = outSchema.WithAttr(a.AttrName, dataformat.Long)
		if err != nil {
			return err
		}
	}
	addons := j.AddOns
	pack := j.Pack
	job := &Job{
		Name:           "group-" + j.ID,
		Input:          Input{Paths: st.files},
		NumReduceTasks: st.reduces,
		Map: func(key, value []byte, emit Emit) error {
			row, _, err := core.DecodeEntry(value)
			if err != nil {
				return err
			}
			emit([]byte(row.Values[col].AsString()), value)
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit Emit) error {
			// Spare capacity lets the add-on attributes append in place.
			dec := core.NewRowDecoder(len(values), len(addons))
			members := make([]core.Row, len(values))
			for i, v := range values {
				var err error
				if members[i], _, err = dec.Entry(v); err != nil {
					return err
				}
			}
			attrs := make([]dataformat.Value, len(addons))
			for i, a := range addons {
				var err error
				attrs[i], err = a.AddOn.Compute(members, valueIdx[i])
				if err != nil {
					return err
				}
			}
			for mi := range members {
				members[mi].Values = append(members[mi].Values, attrs...)
			}
			if pack {
				g := core.Group{Key: members[0].Values[col], Rows: members}
				emit(key, core.AppendEntry(nil, core.Row{}, &g))
				return nil
			}
			var buf []byte
			for _, m := range members {
				buf = core.AppendEntry(buf[:0], m, nil)
				emit(key, buf)
			}
			return nil
		},
	}
	r, err := st.engine.Run(job)
	if err != nil {
		return err
	}
	st.res.JobCounters = append(st.res.JobCounters, r)
	st.files = r.Outputs[0]
	st.schema = outSchema
	return nil
}

func (st *planState) runSplit(j *core.SplitJob) error {
	col := st.schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("split key %q missing from schema %v", j.KeyCol, st.schema.Fields)
	}
	branches := j.Branches
	job := &Job{
		Name:        "split-" + j.ID,
		Input:       Input{Paths: st.files},
		MapBranches: len(branches),
		MultiMap: func(key, value []byte, emit MultiEmit) error {
			row, group, err := core.DecodeEntry(value)
			if err != nil {
				return err
			}
			probe := row
			if group != nil {
				if len(group.Rows) == 0 {
					return nil
				}
				probe = group.Rows[0]
			}
			k, err := probe.Values[col].AsInt()
			if err != nil {
				return err
			}
			for bi, b := range branches {
				if !b.Condition.Eval(k) {
					continue
				}
				switch {
				case b.Format == "unpack" && group != nil:
					var buf []byte
					for _, r := range group.Rows {
						buf = core.AppendEntry(buf[:0], r, nil)
						emit(bi, key, buf)
					}
				default:
					emit(bi, key, value)
				}
				return nil
			}
			return fmt.Errorf("split %s: key %d matches no condition", j.ID, k)
		},
	}
	r, err := st.engine.Run(job)
	if err != nil {
		return err
	}
	st.res.JobCounters = append(st.res.JobCounters, r)
	for bi, b := range branches {
		st.side[b.Name] = r.Outputs[bi]
	}
	st.files = nil
	return nil
}

func (st *planState) runDistribute(j *core.DistributeJob) error {
	inputSets := [][]string{st.files}
	if len(j.InputBranches) > 0 {
		inputSets = inputSets[:0]
		for _, name := range j.InputBranches {
			files, ok := st.side[name]
			if !ok {
				return fmt.Errorf("distribute %s: no split branch %q", j.ID, name)
			}
			inputSets = append(inputSets, files)
		}
	}
	if j.Policy == core.Auto {
		return fmt.Errorf("distribute %s: policy auto requires the plan optimizer to bind a concrete policy", j.ID)
	}
	np := j.NumPartitions

	// Client-side pass: rewrite entry keys to the partition id. Cyclic and
	// block need each entry's global index and the branch total — the same
	// offset bookkeeping the MR-MPI backend derives with an exclusive scan.
	// ElideShuffle needs no handling here: this routing pass already runs
	// client-side, so the flag's wire savings are MR-MPI-specific.
	routedDir := st.engine.WorkDir + "/route-" + sanitize(j.ID)
	if err := os.MkdirAll(routedDir, 0o755); err != nil {
		return fmt.Errorf("hadoop: %w", err)
	}
	var routed []string
	for si, files := range inputSets {
		entries, err := readAllKV(files)
		if err != nil {
			return err
		}
		total := int64(entries.Len())
		out := keyval.NewList(entries.Len())
		for i := 0; i < entries.Len(); i++ {
			kv := entries.At(i)
			var part int
			switch j.Policy {
			case core.Cyclic:
				part = int(int64(i) % int64(np))
			case core.Block:
				if total == 0 {
					part = 0
				} else {
					part = int(((int64(i)+1)*int64(np)+total-1)/total) - 1
				}
			case core.GraphVertexCut:
				row, group, err := core.DecodeEntry(kv.Value)
				if err != nil {
					return err
				}
				if group != nil {
					part = core.HashValue(group.Key, np)
				} else {
					part = core.HashValue(row.Values[0], np)
				}
			default:
				return fmt.Errorf("unhandled policy %v", j.Policy)
			}
			key := make([]byte, 4)
			key[0] = byte(part >> 24)
			key[1] = byte(part >> 16)
			key[2] = byte(part >> 8)
			key[3] = byte(part)
			out.Add(key, kv.Value)
		}
		path := fmt.Sprintf("%s/branch-%d.kv", routedDir, si)
		if err := os.WriteFile(path, out.Encode(), 0o644); err != nil {
			return fmt.Errorf("hadoop: %w", err)
		}
		routed = append(routed, path)
	}

	job := &Job{
		Name:           "distribute-" + j.ID,
		Input:          Input{Paths: routed},
		NumReduceTasks: np,
		Map: func(key, value []byte, emit Emit) error {
			emit(key, value)
			return nil
		},
		Partition: func(key []byte, numReduce int) int {
			return int(uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3]))
		},
	}
	r, err := st.engine.Run(job)
	if err != nil {
		return err
	}
	st.res.JobCounters = append(st.res.JobCounters, r)

	// Materialize partitions: unpack groups, drop appended attributes.
	inArity := len(st.plan.InputSchema.Fields)
	st.res.Partitions = make([][]core.Row, np)
	for p, path := range r.Outputs[0] {
		buf, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("hadoop: %w", err)
		}
		l, err := keyval.Decode(buf)
		if err != nil {
			return err
		}
		dec := core.NewRowDecoder(l.Len(), 0)
		for i := 0; i < l.Len(); i++ {
			rows := st.res.Partitions[p]
			from := len(rows)
			rows, err := dec.AppendEntryRows(rows, l.Value(i))
			if err != nil {
				return err
			}
			if j.RestoreFormat {
				for i := from; i < len(rows); i++ {
					if len(rows[i].Values) > inArity {
						rows[i].Values = rows[i].Values[:inArity]
					}
				}
			}
			st.res.Partitions[p] = rows
		}
	}
	return nil
}

func readAllKV(files []string) (*keyval.List, error) {
	out := keyval.NewList(0)
	for _, path := range files {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("hadoop: %w", err)
		}
		l, err := keyval.Decode(buf)
		if err != nil {
			return nil, err
		}
		out.AppendList(l)
		l.Release() // also recycles buf, which l aliases
	}
	return out, nil
}
