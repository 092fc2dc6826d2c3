package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/aspas"
	"repro/internal/cluster"
	"repro/internal/dataformat"
	"repro/internal/keyval"
	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/sample"
	"repro/internal/spill"
	"repro/internal/vtime"
)

// Input feeds a plan execution. Exactly one of Path or LocalRows is used:
// Path names an on-disk file in the plan's input format; LocalRows supplies
// pre-placed in-memory rows per rank (the in-memory repartitioning use case
// from §II-B).
type Input struct {
	Path      string
	LocalRows [][]Row
}

// Result is the outcome of executing a plan.
type Result struct {
	// Partitions holds the final output rows of every partition, in
	// partition order. Rows have the input file arity (attributes dropped,
	// groups unpacked).
	Partitions [][]Row
	// Makespan is the virtual time of the whole partitioning run
	// (excluding input I/O, matching the paper's measurement).
	Makespan vtime.Duration
	// JobMakespans records the cumulative makespan after each job.
	JobMakespans []vtime.Duration
	// JobBytes / JobMessages record the cumulative shuffle traffic after
	// each job (delta between entries = that job's traffic).
	JobBytes    []int64
	JobMessages []int64
	// ShuffleBytes is the total bytes moved over the interconnect.
	ShuffleBytes int64
	// ShuffleMessages is the total message count.
	ShuffleMessages int64
}

// sampleCap is the per-rank reservoir size for sort splitter sampling
// (§III-D data sampling).
const sampleCap = 1024

// SpillOptions configure the out-of-core disk tier of the data plane.
type SpillOptions struct {
	// MemBudget caps each rank's resident KV payload in bytes; cold pages
	// spill to per-rank run files and stream back on demand. 0 keeps the
	// whole data plane in memory.
	MemBudget int64
	// Dir is the spill root directory. Empty means a fresh temp directory,
	// removed when the run finishes.
	Dir string
	// Replicate writes every run frame to the buddy path as well, so a
	// rotted frame on one path can be served from the other.
	Replicate bool
}

// ExecOptions tune plan execution beyond what the plan itself specifies.
type ExecOptions struct {
	Spill SpillOptions
	// Cancel, when non-nil, requests cooperative cancellation: every rank
	// polls it at job boundaries (and between recovery rounds on the
	// resilient path) and unwinds with ErrCanceled once it is closed. A job
	// already in flight runs to its boundary first, so cancellation never
	// tears a shuffle mid-exchange — worst-case latency is one job.
	Cancel <-chan struct{}
}

// ErrCanceled reports that an execution unwound because its
// ExecOptions.Cancel channel was closed (deadline exceeded, shutdown).
var ErrCanceled = errors.New("core: execution canceled")

// canceled polls a cancellation channel without blocking.
func canceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// spillRoot resolves the spill root directory; the returned cleanup removes
// it only if this call created it.
func spillRoot(opts ExecOptions) (string, func(), error) {
	if opts.Spill.MemBudget <= 0 {
		return "", func() {}, nil
	}
	if opts.Spill.Dir != "" {
		return opts.Spill.Dir, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "papar-spill-")
	if err != nil {
		return "", nil, fmt.Errorf("core: spill root: %w", err)
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// openRankSpill opens rank r's spill store under root, charging disk service
// time to the rank's virtual clock and folding counters into the cluster
// stats (and from there into the observer's metrics).
func openRankSpill(cl *cluster.Cluster, r *cluster.Rank, root string, opts ExecOptions) (*spill.Store, error) {
	return spill.Open(spill.Config{
		Dir:       filepath.Join(root, fmt.Sprintf("rank-%03d", r.ID())),
		Rank:      r.ID(),
		Node:      r.Node(),
		Plan:      cl.FaultPlan(),
		Replicate: opts.Spill.Replicate,
		Charge:    func(d vtime.Duration) { r.Clock().Advance(d) },
		Sink: func(d spill.Stats) {
			r.RecordSpill(cluster.SpillStats{
				SpillPages:   d.SpillPages,
				SpillBytes:   d.SpillBytes,
				RestorePages: d.RestorePages,
				RestoreBytes: d.RestoreBytes,
				Retries:      d.Retries,
				Failovers:    d.Failovers,
				RotDetected:  d.RotDetected,
				Stalls:       d.Stalls,
				StallBytes:   d.StallBytes,
			})
		},
	})
}

// JobLaunchOverhead is the fixed per-job framework cost every rank pays
// when a generated partitioner starts the next MapReduce job: MR-MPI
// object setup, KV page allocation, and the job-by-job launch sequencing
// the paper describes ("the jobs are launched one by one following the
// order defined in the workflow configuration file", §III-D). This is the
// programmability overhead §IV-C concedes to PowerLyra's fused native
// pipeline on small inputs.
const JobLaunchOverhead = 500 * vtime.Microsecond

// Execute runs the generated partitioner SPMD on the cluster and returns
// the assembled partitions. The cluster is Reset first, so its clocks
// measure only this run.
func Execute(cl *cluster.Cluster, plan *Plan, in Input) (*Result, error) {
	return ExecuteOpts(cl, plan, in, ExecOptions{})
}

// ExecuteOpts is Execute with execution options (e.g. a per-rank memory
// budget backed by disk spilling).
func ExecuteOpts(cl *cluster.Cluster, plan *Plan, in Input, opts ExecOptions) (*Result, error) {
	cl.Reset()
	p := cl.Size()

	locals, err := prepareLocals(plan, in, p)
	if err != nil {
		return nil, err
	}
	root, cleanupRoot, err := spillRoot(opts)
	if err != nil {
		return nil, err
	}
	defer cleanupRoot()

	// Per-rank outputs, written by each rank's goroutine at its own index.
	partsByRank := make([]map[int][]Row, p)
	jobClocks := make([][]vtime.Duration, len(plan.Jobs))
	for i := range jobClocks {
		jobClocks[i] = make([]vtime.Duration, p)
	}
	jobSentBytes := make([][]int64, len(plan.Jobs))
	jobSentMsgs := make([][]int64, len(plan.Jobs))
	for i := range jobSentBytes {
		jobSentBytes[i] = make([]int64, p)
		jobSentMsgs[i] = make([]int64, p)
	}

	_, err = cl.Run(func(r *cluster.Rank) error {
		st := &execState{
			comm: mpi.NewComm(r),
			plan: plan,
			data: &Dataset{Schema: NewRowSchema(plan.InputSchema), Rows: locals[r.ID()]},
			side: map[string]*Dataset{},
		}
		st.mr = mrmpi.New(st.comm)
		if opts.Spill.MemBudget > 0 {
			sp, err := openRankSpill(cl, r, root, opts)
			if err != nil {
				return err
			}
			defer sp.Close()
			st.mr.SetSpill(sp, opts.Spill.MemBudget)
		}
		for ji, job := range plan.Jobs {
			if canceled(opts.Cancel) {
				return ErrCanceled
			}
			endJob := r.Span("job", job.JobID())
			r.Charge(JobLaunchOverhead)
			if err := st.runJob(job); err != nil {
				return fmt.Errorf("job %s: %w", job.JobID(), err)
			}
			// Jobs launch one by one (§III-D), so a barrier separates them.
			// Each rank then snapshots its own cumulative send counters —
			// deterministic, because a rank's sends for job ji all precede
			// its own snapshot; the host sums the per-rank snapshots.
			if err := st.comm.Barrier(); err != nil {
				return fmt.Errorf("job %s: %w", job.JobID(), err)
			}
			endJob()
			jobClocks[ji][r.ID()] = r.Clock().Now()
			b, m := r.SentStats()
			jobSentBytes[ji][r.ID()] = b
			jobSentMsgs[ji][r.ID()] = m
		}
		partsByRank[r.ID()] = st.partitions
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Makespan: cl.Makespan()}
	stats := cl.Stats()
	res.ShuffleBytes = stats.BytesOnWire
	res.ShuffleMessages = stats.Messages
	for _, clocks := range jobClocks {
		var m vtime.Duration
		for _, c := range clocks {
			if c > m {
				m = c
			}
		}
		res.JobMakespans = append(res.JobMakespans, m)
	}
	res.JobBytes = make([]int64, len(plan.Jobs))
	res.JobMessages = make([]int64, len(plan.Jobs))
	for ji := range plan.Jobs {
		for rank := 0; rank < p; rank++ {
			res.JobBytes[ji] += jobSentBytes[ji][rank]
			res.JobMessages[ji] += jobSentMsgs[ji][rank]
		}
	}

	sizes := make([]int, plan.NumPartitions)
	for rank := 0; rank < p; rank++ {
		for part, rows := range partsByRank[rank] {
			if part < 0 || part >= plan.NumPartitions {
				return nil, fmt.Errorf("core: rank %d produced out-of-range partition %d", rank, part)
			}
			sizes[part] += len(rows)
		}
	}
	res.Partitions = make([][]Row, plan.NumPartitions)
	for part, n := range sizes {
		if n > 0 {
			res.Partitions[part] = make([]Row, 0, n)
		}
	}
	for rank := 0; rank < p; rank++ {
		for part, rows := range partsByRank[rank] {
			res.Partitions[part] = append(res.Partitions[part], rows...)
		}
	}
	return res, nil
}

// prepareLocals pre-splits the input outside the timed region (the paper
// excludes I/O from all measurements): either adopting caller-placed rows or
// reading and splitting the plan's input file across p ranks.
func prepareLocals(plan *Plan, in Input, p int) ([][]Row, error) {
	locals := make([][]Row, p)
	switch {
	case in.LocalRows != nil:
		if len(in.LocalRows) != p {
			return nil, fmt.Errorf("core: %d local row sets for %d ranks", len(in.LocalRows), p)
		}
		copy(locals, in.LocalRows)
	case in.Path != "":
		splits, err := dataformat.Splits(plan.InputSchema, in.Path, p)
		if err != nil {
			return nil, err
		}
		for i, sp := range splits {
			// Stream the split record by record: ingest never holds the whole
			// input (or even a whole split's raw bytes) in memory at once.
			// Each record's values are freshly decoded, so the row adopts them.
			var rows []Row
			err := dataformat.StreamSplit(plan.InputSchema, sp, func(rec dataformat.Record) error {
				rows = append(rows, Row{Values: rec.Values})
				return nil
			})
			if err != nil {
				return nil, err
			}
			locals[i] = rows
		}
	default:
		return nil, fmt.Errorf("core: input has neither a path nor local rows")
	}
	return locals, nil
}

// runJob dispatches one workflow job on this rank's state.
func (st *execState) runJob(job Job) error {
	switch j := job.(type) {
	case *SortJob:
		return st.runSort(j)
	case *GroupJob:
		return st.runGroup(j)
	case *SplitJob:
		return st.runSplit(j)
	case *DistributeJob:
		return st.runDistribute(j)
	case *DeltaJob:
		return st.runMoves(j.ID, j.NumPartitions, j.ScanRows)
	case *RepartitionJob:
		return st.runMoves(j.ID, j.NumPartitions, j.ScanRows)
	case *CoalesceJob:
		return st.runCoalesce(j)
	case *FusedJob:
		// Inner jobs run back to back under the enclosing job's single
		// launch overhead and barrier; collectives inside them (shuffles,
		// scans) still synchronize the ranks, so the fusion only removes
		// framework cost, never an ordering edge.
		for _, inner := range j.Inner {
			if err := st.runJob(inner); err != nil {
				return fmt.Errorf("fused %s: %w", inner.JobID(), err)
			}
		}
		return nil
	case CustomJob:
		ctx := &ExecContext{Comm: st.comm, MR: st.mr, Plan: st.plan, Data: st.data, Side: st.side}
		err := j.Run(ctx)
		st.data = ctx.Data
		return err
	default:
		return fmt.Errorf("core: unknown job type %T", job)
	}
}

// execState is one rank's view of a running plan.
type execState struct {
	comm *mpi.Comm
	mr   *mrmpi.MapReduce
	plan *Plan
	// data is the current (main-line) dataset fragment.
	data *Dataset
	// side holds split branch outputs by name.
	side map[string]*Dataset
	// partitions receives the final distribute output: partition -> rows.
	partitions map[int][]Row
}

// SortableKeyInt64 exposes the order-preserving int64 mapping the sampler
// uses for splitter bucketing (numeric values directly; strings by 8-byte
// big-endian prefix). The plan optimizer samples input columns through it so
// its statistics live in the same key space as the runtime's.
func SortableKeyInt64(v dataformat.Value) int64 { return keyAsSortable(v) }

// SortableKeyBytes renders a column value as 8 order-preserving big-endian
// bytes: bytes.Compare on the outputs agrees with compareValues on the
// inputs (up to the 8-byte string prefix). Backends that sort by raw key
// bytes (the Hadoop mapping) use it to build sort keys.
func SortableKeyBytes(v dataformat.Value) []byte {
	k := uint64(keyAsSortable(v)) ^ (1 << 63) // shift int64 into unsigned order
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = byte(k)
		k >>= 8
	}
	return out
}

// keyAsSortable maps a column value to an order-preserving int64 for
// splitter bucketing: numeric values directly; strings by their first 8
// bytes, big-endian, which preserves lexicographic <=.
func keyAsSortable(v dataformat.Value) int64 {
	if !v.IsStr {
		return v.Int
	}
	var x uint64
	b := []byte(v.Str)
	for i := 0; i < 8; i++ {
		x <<= 8
		if i < len(b) {
			x |= uint64(b[i])
		}
	}
	// Drop the lowest bit to stay in the positive int64 range; the map
	// stays monotone (a <= b lexicographically implies key(a) <= key(b)),
	// which is all bucketing needs.
	return int64(x >> 1)
}

func compareValues(a, b dataformat.Value) int {
	if a.IsStr || b.IsStr {
		as, bs := a.AsString(), b.AsString()
		switch {
		case as < bs:
			return -1
		case as > bs:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.Int < b.Int:
		return -1
	case a.Int > b.Int:
		return 1
	default:
		return 0
	}
}

// runSort implements the Sort job exactly as Fig. 9 describes: sample the
// key distribution, assign range-based temporary reduce-keys, shuffle,
// sort within each reducer, and drop the reduce-key.
func (st *execState) runSort(j *SortJob) error {
	if st.data.Packed {
		return fmt.Errorf("core: sort on packed data is not defined")
	}
	col := st.data.Schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("core: sort key %q missing from runtime schema", j.KeyCol)
	}
	p := st.comm.Size()
	reducers := j.NumReducers
	if reducers <= 0 || reducers > p {
		reducers = p
	}

	// Phase 1 (§III-D): sample on every rank, approximate the global
	// distribution, derive splitters.
	endSample := st.comm.Cluster().Span("core", "sample")
	res := sample.NewReservoir(sampleCap, int64(st.comm.Rank()))
	for _, row := range st.data.Rows {
		res.Offer(keyAsSortable(row.Values[col]))
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(len(st.data.Rows), 8*len(st.data.Rows)))
	local := encodeInt64s(res.Sample())
	parts, err := st.comm.Allgather(local)
	if err != nil {
		return err
	}
	var merged []int64
	for _, b := range parts {
		vs, err := decodeInt64s(b)
		if err != nil {
			return err
		}
		merged = append(merged, vs...)
	}
	splitters, err := sample.Splitters(merged, reducers)
	if err != nil {
		return err
	}
	endSample()

	// Phase 2: mappers shuffle rows with the bucket as the temporary
	// reduce-key.
	rows := st.data.Rows
	if err := st.mr.Map(func(emit mrmpi.Emitter) error {
		var key [4]byte
		var buf []byte
		for _, row := range rows {
			bucket := sample.Locate(splitters, keyAsSortable(row.Values[col]))
			if j.Descending {
				bucket = reducers - 1 - bucket
			}
			binary.LittleEndian.PutUint32(key[:], uint32(bucket))
			buf = AppendRow(buf[:0], row)
			emit(key[:], buf)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.mr.Aggregate(bucketPartitioner); err != nil {
		return err
	}

	// Phase 3: each reducer sorts its rows by the real key and removes the
	// reduce-key. Each streams spilled shuffle output a frame at a time;
	// the decoder copies, so the rows own their values.
	defer st.comm.Cluster().Span("core", "sort")()
	out := make([]Row, 0, st.mr.Pairs())
	dec := NewRowDecoder(st.mr.Pairs(), 0)
	if err := st.mr.Each(func(kv keyval.KV) error {
		row, err := dec.Row(kv.Value)
		if err != nil {
			return err
		}
		out = append(out, row)
		return nil
	}); err != nil {
		return err
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().SortCost(len(out), rowBytes(out)))
	// All-numeric key columns take the radix path: compareValues over two
	// non-string values is exactly int64 order, so sorting by the raw Int —
	// complemented for descending, which reverses the order stably without
	// the MinInt64 overflow negation has — is byte-identical to the stable
	// comparison sort.
	numeric := true
	for i := range out {
		if out[i].Values[col].IsStr {
			numeric = false
			break
		}
	}
	switch {
	case numeric && j.Descending:
		aspas.Int64Key(out, func(r Row) int64 { return ^r.Values[col].Int })
	case numeric:
		aspas.Int64Key(out, func(r Row) int64 { return r.Values[col].Int })
	case j.Descending:
		aspas.SortStable(out, func(a, b Row) bool {
			return compareValues(a.Values[col], b.Values[col]) > 0
		})
	default:
		aspas.SortStable(out, func(a, b Row) bool {
			return compareValues(a.Values[col], b.Values[col]) < 0
		})
	}
	st.data = &Dataset{Schema: st.data.Schema, Rows: out}
	return nil
}

// runGroup implements the Group job from Fig. 11: shuffle by the group key,
// run add-ons to append attributes, then pack or flatten the output.
func (st *execState) runGroup(j *GroupJob) error {
	if st.data.Packed {
		return fmt.Errorf("core: group on packed data is not defined")
	}
	col := st.data.Schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("core: group key %q missing from runtime schema", j.KeyCol)
	}
	valueIdx := make([]int, len(j.AddOns))
	for i, a := range j.AddOns {
		valueIdx[i] = -1
		if a.ValueCol != "" {
			valueIdx[i] = st.data.Schema.Index(a.ValueCol)
			if valueIdx[i] < 0 {
				return fmt.Errorf("core: add-on value column %q missing", a.ValueCol)
			}
		}
	}

	rows := st.data.Rows
	if err := st.mr.Map(func(emit mrmpi.Emitter) error {
		var key, buf []byte
		for _, row := range rows {
			// The same bytes as AsString, without its allocations.
			if v := row.Values[col]; v.IsStr {
				key = append(key[:0], v.Str...)
			} else {
				key = strconv.AppendInt(key[:0], v.Int, 10)
			}
			buf = AppendRow(buf[:0], row)
			emit(key, buf)
		}
		return nil
	}); err != nil {
		return err
	}
	if j.PlacementCompatible {
		if _, err := st.mr.AggregateCompatible(mrmpi.HashPartitioner); err != nil {
			return err
		}
	} else if err := st.mr.Aggregate(mrmpi.HashPartitioner); err != nil {
		return err
	}
	st.mr.Convert()

	// Build the output schema by appending attribute columns.
	defer st.comm.Cluster().Span("core", "group")()
	outSchema := st.data.Schema
	var err error
	for _, a := range j.AddOns {
		outSchema, err = outSchema.WithAttr(a.AttrName, dataformat.Long)
		if err != nil {
			return err
		}
	}

	kmv := st.mr.KMV()
	total := 0
	for _, g := range kmv {
		total += len(g.Values)
	}
	// Every member row gets spare capacity for the add-on attributes, so
	// appending them below stays inside the row's own slab range.
	dec := NewRowDecoder(total, len(j.AddOns))
	groups := make([]Group, 0, len(kmv))
	attrs := make([]dataformat.Value, len(j.AddOns))
	for _, g := range kmv {
		members := make([]Row, len(g.Values))
		for i, v := range g.Values {
			if members[i], err = dec.Row(v); err != nil {
				return err
			}
		}
		// Add-ons compute over the original member rows, then the attribute
		// is appended to every member (Fig. 11 step 2: count adds the
		// indegree attribute on each edge).
		for i, a := range j.AddOns {
			attrs[i], err = a.AddOn.Compute(members, valueIdx[i])
			if err != nil {
				return err
			}
		}
		for mi := range members {
			members[mi].Values = append(members[mi].Values, attrs...)
		}
		keyVal := members[0].Values[col]
		groups = append(groups, Group{Key: keyVal, Rows: members})
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().GroupCost(len(groups), 0))

	if j.Pack {
		st.data = &Dataset{Schema: outSchema, Packed: true, Groups: groups}
		return nil
	}
	flat := make([]Row, 0, total)
	for _, g := range groups {
		flat = append(flat, g.Rows...)
	}
	st.data = &Dataset{Schema: outSchema, Rows: flat}
	return nil
}

// runSplit implements the Split job (Fig. 11 steps 4-5): route entries to
// branch outputs by the key condition, applying the per-branch format
// operator.
func (st *execState) runSplit(j *SplitJob) error {
	col := st.data.Schema.Index(j.KeyCol)
	if col < 0 {
		return fmt.Errorf("core: split key %q missing from runtime schema", j.KeyCol)
	}
	for _, b := range j.Branches {
		if b.Condition.Auto {
			return fmt.Errorf("core: split %s: branch %s threshold is auto; run the plan optimizer (papar -optimize) to bind it", j.ID, b.Name)
		}
	}
	branchData := make([]*Dataset, len(j.Branches))
	for i := range branchData {
		branchData[i] = &Dataset{Schema: st.data.Schema, Packed: st.data.Packed}
	}
	route := func(key int64) (int, error) {
		for i, b := range j.Branches {
			if b.Condition.Eval(key) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("core: split %s: key %d matches no condition", j.ID, key)
	}
	if st.data.Packed {
		for _, g := range st.data.Groups {
			if len(g.Rows) == 0 {
				continue
			}
			key, err := g.Rows[0].Values[col].AsInt()
			if err != nil {
				return err
			}
			bi, err := route(key)
			if err != nil {
				return err
			}
			branchData[bi].Groups = append(branchData[bi].Groups, g)
		}
	} else {
		for _, row := range st.data.Rows {
			key, err := row.Values[col].AsInt()
			if err != nil {
				return err
			}
			bi, err := route(key)
			if err != nil {
				return err
			}
			branchData[bi].Rows = append(branchData[bi].Rows, row)
		}
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(st.data.Len(), 0))

	for i, b := range j.Branches {
		d := branchData[i]
		switch b.Format {
		case "unpack":
			if d.Packed {
				var flat []Row
				for _, g := range d.Groups {
					flat = append(flat, g.Rows...)
				}
				d = &Dataset{Schema: d.Schema, Rows: flat}
				st.comm.Cluster().Charge(st.comm.Cluster().Compute().CopyCost(16 * len(flat)))
			}
		case "orig", "pack":
			// orig keeps the incoming representation; pack keeps groups
			// (packing flat data would need a grouping key and is produced
			// by the Group job instead).
		}
		st.side[b.Name] = d
	}
	st.data = &Dataset{Schema: st.data.Schema} // consumed
	return nil
}

// runDistribute implements the Distribute job: formalize the policy as a
// permutation matrix / hash placement, shuffle entries to their partitions,
// and restore the input format (§III-C).
func (st *execState) runDistribute(j *DistributeJob) error {
	if j.Policy == Auto {
		return fmt.Errorf("core: distribute %s: policy auto requires the plan optimizer (papar -optimize) to bind a concrete policy", j.ID)
	}
	inputs := []*Dataset{st.data}
	if len(j.InputBranches) > 0 {
		inputs = inputs[:0]
		for _, name := range j.InputBranches {
			d, ok := st.side[name]
			if !ok {
				return fmt.Errorf("core: distribute %s: no split branch %q", j.ID, name)
			}
			inputs = append(inputs, d)
		}
	}
	if j.ElideShuffle {
		return st.distributeLocal(j, inputs)
	}
	np := j.NumPartitions

	// Emit (partition, entry) pairs. Each branch is assigned independently,
	// matching the paper's per-format permutation matrices (L^4_3 for the
	// high-degree branch, L^3_3 for the low-degree branch in Fig. 11).
	if err := st.mr.Map(func(emit mrmpi.Emitter) error {
		for _, d := range inputs {
			if err := st.assignPartitions(d, j.Policy, np, emit); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.mr.Aggregate(bucketPartitioner); err != nil {
		return err
	}

	// Reducers: decode entries, unpack, drop attributes, store rows per
	// partition. Each streams spilled shuffle output a frame at a time;
	// the decoder copies, so the rows own their values.
	defer st.comm.Cluster().Span("core", "write")()
	inArity := len(st.plan.InputSchema.Fields)
	st.partitions = map[int][]Row{}
	dec := NewRowDecoder(st.mr.Pairs(), 0)
	if err := st.mr.Each(func(kv keyval.KV) error {
		part := int(binary.LittleEndian.Uint32(kv.Key))
		rows := st.partitions[part]
		from := len(rows)
		rows, err := dec.AppendEntryRows(rows, kv.Value)
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
		st.partitions[part] = rows
		return nil
	}); err != nil {
		return err
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(st.mr.Pairs(), st.mr.PayloadBytes()))
	return nil
}

// assignPartitions routes each entry of d to a partition under the policy
// and emits (partition, encoded entry).
func (st *execState) assignPartitions(d *Dataset, policy DistrPolicy, np int, emit mrmpi.Emitter) error {
	var key [4]byte
	var buf []byte
	return st.eachAssignment(d, policy, np, func(i, part int) error {
		binary.LittleEndian.PutUint32(key[:], uint32(part))
		if d.Packed {
			buf = AppendEntry(buf[:0], Row{}, &d.Groups[i])
		} else {
			buf = AppendEntry(buf[:0], d.Rows[i], nil)
		}
		emit(key[:], buf)
		return nil
	})
}

// eachAssignment computes every local entry's partition under the policy and
// calls visit(i, part) in entry order. It performs the collective offset
// bookkeeping (exclusive scan; an allgather for Balanced) and charges the
// routing scan, so the shuffled and the elided distribute paths see
// identical assignments, collective schedules and routing costs.
func (st *execState) eachAssignment(d *Dataset, policy DistrPolicy, np int, visit func(i, part int) error) error {
	n := d.Len()
	// Global offset and total for offset-aware policies: the distributed
	// equivalent of applying the global stride-permutation matrix L^N_np.
	offset, total, err := st.comm.ExscanInt64(int64(n))
	if err != nil {
		return err
	}
	var balancedAssign []int
	if policy == Balanced {
		balancedAssign, err = st.balancedAssignment(d, np)
		if err != nil {
			return err
		}
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(n, 0))
	for i := 0; i < n; i++ {
		var part int
		switch policy {
		case Cyclic:
			part = int((offset + int64(i)) % int64(np))
		case Block:
			if total == 0 {
				part = 0
			} else {
				// Partition boundaries follow the lo = N*p/np convention
				// (identical to muBLASTP's own block splitter), i.e. global
				// index g belongs to partition ceil((g+1)*np/N) - 1.
				g := offset + int64(i)
				part = int(((g+1)*int64(np)+total-1)/total) - 1
			}
		case GraphVertexCut:
			if d.Packed {
				part = HashValue(d.Groups[i].Key, np)
			} else {
				part = HashValue(d.Rows[i].Values[0], np)
			}
		case Balanced:
			part = balancedAssign[i]
		default:
			return fmt.Errorf("core: unhandled policy %v", policy)
		}
		if err := visit(i, part); err != nil {
			return err
		}
	}
	return nil
}

// distributeLocal is the elided-shuffle distribute: for index-based policies
// the assignment is a pure function of the global entry index, so each rank
// records its own entries' partitions without re-scattering them. Byte
// identity with the shuffled path follows from the assembly order: the
// literal shuffle concatenates each partition's entries in ascending
// source-rank order (emit order within a source), which is exactly the order
// the host walks partsByRank when it assembles fragments. The elided run
// keeps the exclusive-scan collective and the routing-scan charges, so only
// the exchange itself (and its wire time) disappears.
func (st *execState) distributeLocal(j *DistributeJob, inputs []*Dataset) error {
	defer st.comm.Cluster().Span("core", "write")()
	inArity := len(st.plan.InputSchema.Fields)
	st.partitions = map[int][]Row{}
	outRows := 0
	for _, d := range inputs {
		err := st.eachAssignment(d, j.Policy, j.NumPartitions, func(i, part int) error {
			member := d.Rows[i : i+1]
			if d.Packed {
				member = d.Groups[i].Rows
			}
			for _, row := range member {
				if j.RestoreFormat && len(row.Values) > inArity {
					// Reslicing the copy leaves the dataset's row intact.
					row.Values = row.Values[:inArity]
				}
				st.partitions[part] = append(st.partitions[part], row)
				outRows++
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(outRows, 0))
	return nil
}

// balancedAssignment implements the Balanced policy: every rank learns every
// group's weight (member-row count; 1 for flat rows) through an allgather,
// runs the same deterministic greedy longest-processing-time placement, and
// returns the partitions of its own local entries. Determinism follows from
// sorting by (weight desc, rank, index) and breaking load ties by partition
// id — all ranks compute identical assignments with no coordinator.
func (st *execState) balancedAssignment(d *Dataset, np int) ([]int, error) {
	n := d.Len()
	weights := make([]int64, n)
	for i := 0; i < n; i++ {
		if d.Packed {
			weights[i] = int64(len(d.Groups[i].Rows))
		} else {
			weights[i] = 1
		}
	}
	parts, err := st.comm.Allgather(encodeInt64s(weights))
	if err != nil {
		return nil, err
	}
	type item struct {
		rank, idx int
		weight    int64
	}
	var items []item
	for rank, buf := range parts {
		ws, err := decodeInt64s(buf)
		if err != nil {
			return nil, err
		}
		for idx, w := range ws {
			items = append(items, item{rank: rank, idx: idx, weight: w})
		}
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].weight != items[b].weight {
			return items[a].weight > items[b].weight
		}
		if items[a].rank != items[b].rank {
			return items[a].rank < items[b].rank
		}
		return items[a].idx < items[b].idx
	})
	load := make([]int64, np)
	mine := make([]int, n)
	for _, it := range items {
		best := 0
		for p := 1; p < np; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		load[best] += it.weight
		if it.rank == st.comm.Rank() {
			mine[it.idx] = best
		}
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(len(items)*np/8+len(items), 0))
	return mine, nil
}

// bucketPartitioner routes a 4-byte bucket/partition reduce-key to the rank
// hosting that reducer (reducer b lives on rank b mod P, keeping bucket
// order aligned with rank order for contiguous buckets).
func bucketPartitioner(kv keyval.KV, nranks int) int {
	return int(binary.LittleEndian.Uint32(kv.Key)) % nranks
}

func encodeInt64s(vs []int64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func decodeInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("core: int64 buffer of %d bytes", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func rowBytes(rows []Row) int {
	if len(rows) == 0 {
		return 0
	}
	return len(EncodeRow(rows[0]))
}

// SortRowsByColumn is a test/verification helper: global sort of rows by a
// column, ascending, stable.
func SortRowsByColumn(rows []Row, col int) {
	sort.SliceStable(rows, func(i, j int) bool {
		return compareValues(rows[i].Values[col], rows[j].Values[col]) < 0
	})
}
