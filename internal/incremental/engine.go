// Package incremental patches a resident partition set in place as delta
// batches arrive, instead of repartitioning from scratch (ROADMAP item 3).
//
// The engine keeps the canonical global input sequence E — every resident
// row in arrival order — plus a host-side canonical model of what a
// from-scratch run of the bound plan would produce over E (see model.go).
// Applying a batch of appends and deletes recomputes the canonical
// per-partition sequences for the new E, diffs them against the resident
// placement to find exactly the rows whose partition changed, and ships only
// those rows through a one-job core plan (DeltaJob) over the real batched
// shuffle — so fault plans, spill budgets, observability spans and
// cancellation all apply. The patch walk then splices shipped arrivals into
// the retained rows, byte-verifying every arrival against the model, and
// commits by atomic swap: a canceled, crashed-out or mismatching run leaves
// the resident partitions untouched.
//
// The identity invariant — the patched partitions are byte-identical to a
// from-scratch run over the new E — is not assumed: New seeds the engine
// with an actual executor run and verifies the model against it
// byte-for-byte, and the unit tests plus `paperbench -exp incremental`
// re-check it after every batch for all three paper policies.
package incremental

import (
	"bytes"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/vtime"
)

// Config wires an Engine to a resident cluster and a bound plan.
type Config struct {
	// Plan is the compiled workflow plan. Auto policies and thresholds must
	// already be bound (run it through planopt.Optimize first if needed);
	// optimizer-fused plans are accepted.
	Plan *core.Plan
	// Cluster is the resident simulated cluster every run executes on.
	Cluster *cluster.Cluster
	// Exec carries spill options applied to every run. Its Cancel channel
	// is ignored; pass per-call cancellation via ApplyOptions.
	Exec core.ExecOptions
	// Resilience, when non-nil, routes every run through the resilient
	// executor so the cluster's fault plan applies (a nil Resilience with a
	// fault plan set still takes the resilient path).
	Resilience *core.Resilience
}

// entry is one resident row with its stable id.
type entry struct {
	id  int64
	row core.Row
}

// Engine owns a resident partition set and patches it under delta batches.
// Methods are not safe for concurrent use; callers serialize (papard holds
// one mutex per engine).
type Engine struct {
	cfg   Config
	model model
	np    int
	// entries is E: every resident row in arrival order.
	entries []entry
	nextID  int64
	// parts/partIDs are the resident partition images and their row ids.
	parts   [][]core.Row
	partIDs [][]int64
	// assign maps a row id to its current partition.
	assign map[int64]int
	// seed is the from-scratch seeding run's result (the baseline cost the
	// amortization experiment compares against).
	seed *core.Result
}

// Batch is one delta: rows to append to E plus resident row ids to delete.
type Batch struct {
	Appends []core.Row
	Deletes []int64
}

// ApplyOptions tune one delta application.
type ApplyOptions struct {
	// Cancel cooperatively cancels the run at job boundaries; a canceled
	// delta returns core.ErrCanceled and leaves the partitions untouched.
	Cancel <-chan struct{}
}

// Report describes one committed delta run.
type Report struct {
	// MovedRows is the number of rows shipped over the shuffle (new rows
	// plus rows whose partition changed). Rows that merely reorder within
	// their partition are patched locally and never travel.
	MovedRows int
	// RelabeledRows counts rows reassigned without wire traffic (coalesce).
	RelabeledRows int
	// AppendedRows / DeletedRows echo the batch.
	AppendedRows int
	DeletedRows  int
	// ResidentRows is the post-commit |E|.
	ResidentRows int
	// Makespan is the virtual time of the delta run alone.
	Makespan vtime.Duration
	// ShuffleBytes is the delta run's wire traffic.
	ShuffleBytes int64
	// Recovery is non-nil when the run took the resilient path.
	Recovery *core.RecoveryReport
}

// New seeds an engine: one from-scratch run of the plan over rows on the
// cluster, verified byte-for-byte against the canonical model. The seeding
// run's Result is retained as the from-scratch baseline (Baseline).
func New(cfg Config, rows []core.Row) (*Engine, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("incremental: nil plan")
	}
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("incremental: nil cluster")
	}
	if cfg.Plan.NumPartitions <= 0 {
		return nil, fmt.Errorf("incremental: plan resolves %d partitions", cfg.Plan.NumPartitions)
	}
	m, err := buildModel(cfg.Plan, cfg.Cluster.Size())
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, model: m, np: cfg.Plan.NumPartitions}
	e.entries = make([]entry, 0, len(rows))
	for _, r := range rows {
		e.entries = append(e.entries, entry{id: e.nextID, row: r.Clone()})
		e.nextID++
	}
	res, _, err := e.execute(cfg.Plan, e.rowsView(), nil)
	if err != nil {
		return nil, err
	}
	seqs, err := m.sequences(e.entries, e.np)
	if err != nil {
		return nil, err
	}
	if err := e.adopt(seqs, res.Partitions, e.np); err != nil {
		return nil, fmt.Errorf("incremental: canonical model (%s) diverges from executor at seed: %w", m.name(), err)
	}
	e.seed = res
	return e, nil
}

// ApplyDelta applies one batch of appends and deletes, shipping only the
// rows whose partition changes and patching the rest in place.
func (e *Engine) ApplyDelta(b Batch, opts ApplyOptions) (*Report, error) {
	del := make(map[int64]bool, len(b.Deletes))
	for _, id := range b.Deletes {
		if _, ok := e.assign[id]; !ok {
			return nil, fmt.Errorf("incremental: delete of unknown row id %d", id)
		}
		if del[id] {
			return nil, fmt.Errorf("incremental: duplicate delete of row id %d", id)
		}
		del[id] = true
	}
	next := make([]entry, 0, len(e.entries)-len(del)+len(b.Appends))
	for _, en := range e.entries {
		if !del[en.id] {
			next = append(next, en)
		}
	}
	nextID := e.nextID
	appended := make(map[int64]bool, len(b.Appends))
	for _, r := range b.Appends {
		next = append(next, entry{id: nextID, row: r.Clone()})
		appended[nextID] = true
		nextID++
	}

	seqs, err := e.model.sequences(next, e.np)
	if err != nil {
		return nil, err
	}
	moves, moved := e.moveSet(next, seqs, appended, e.np)
	job := &core.DeltaJob{ID: "delta", NumPartitions: e.np, ScanRows: len(next)}
	res, rec, err := e.runPatchPlan(job, e.np, moves, opts)
	if err != nil {
		return nil, err
	}
	parts, ids, err := e.patch(next, seqs, moved, res.Partitions)
	if err != nil {
		return nil, fmt.Errorf("incremental: delta patch: %w", err)
	}
	e.commit(next, nextID, parts, ids, e.np)
	return e.report(res, rec, len(moves), 0, len(b.Appends), len(del)), nil
}

// Repartition changes the partition count, shipping only rows whose
// partition index changes.
func (e *Engine) Repartition(np int, opts ApplyOptions) (*Report, error) {
	if np <= 0 {
		return nil, fmt.Errorf("incremental: repartition to %d partitions", np)
	}
	seqs, err := e.model.sequences(e.entries, np)
	if err != nil {
		return nil, err
	}
	moves, moved := e.moveSet(e.entries, seqs, nil, np)
	job := &core.RepartitionJob{ID: "repartition", NumPartitions: np, ScanRows: len(e.entries)}
	res, rec, err := e.runPatchPlan(job, np, moves, opts)
	if err != nil {
		return nil, err
	}
	parts, ids, err := e.patch(e.entries, seqs, moved, res.Partitions)
	if err != nil {
		return nil, fmt.Errorf("incremental: repartition patch: %w", err)
	}
	e.commit(e.entries, e.nextID, parts, ids, np)
	return e.report(res, rec, len(moves), 0, 0, 0), nil
}

// Coalesce folds the partition set into a divisor count without any wire
// traffic: for index-based policies with np' dividing np, every new
// partition is a union of whole old partitions, so ranks relabel locally
// (the Spark repartition-vs-coalesce distinction).
func (e *Engine) Coalesce(np int, opts ApplyOptions) (*Report, error) {
	if _, ok := e.model.(*indexModel); !ok {
		return nil, fmt.Errorf("incremental: coalesce requires an index-based policy (cyclic/block); use Repartition for hash placement")
	}
	if np <= 0 || e.np%np != 0 {
		return nil, fmt.Errorf("incremental: coalesce target %d must divide the current count %d", np, e.np)
	}
	seqs, err := e.model.sequences(e.entries, np)
	if err != nil {
		return nil, err
	}
	// Feed every row pre-routed in new-canonical partition-major order; the
	// CoalesceJob relabels locally and the rank-major assembly reproduces
	// exactly this order.
	rows := make([]core.Row, 0, len(e.entries))
	for q, seq := range seqs {
		for _, idx := range seq {
			rows = append(rows, moveRow(e.entries[idx].row, q))
		}
	}
	job := &core.CoalesceJob{ID: "coalesce", NumPartitions: np, FromPartitions: e.np, ScanRows: len(e.entries)}
	res, rec, err := e.runPatchPlan(job, np, rows, opts)
	if err != nil {
		return nil, err
	}
	if err := e.adopt(seqs, res.Partitions, np); err != nil {
		return nil, fmt.Errorf("incremental: coalesce verification: %w", err)
	}
	return e.report(res, rec, 0, len(e.entries), 0, 0), nil
}

// moveSet diffs the new canonical sequences against the resident assignment
// and returns the move rows in global move order — partition-major over the
// new canonical sequences — plus the moved-id set. The order matters: the
// shuffle delivers each destination's arrivals as the global order filtered
// to it, which is what lets the patch walk consume arrivals strictly in
// sequence.
func (e *Engine) moveSet(next []entry, seqs [][]int, fresh map[int64]bool, np int) ([]core.Row, map[int64]bool) {
	moved := map[int64]bool{}
	var moves []core.Row
	for q, seq := range seqs {
		for _, idx := range seq {
			en := next[idx]
			if fresh[en.id] {
				moved[en.id] = true
				moves = append(moves, moveRow(en.row, q))
				continue
			}
			if old, ok := e.assign[en.id]; !ok || old != q {
				moved[en.id] = true
				moves = append(moves, moveRow(en.row, q))
			}
		}
	}
	return moves, moved
}

// moveRow appends the destination partition as the trailing Long column —
// the routing encoding core's splitMoveRow peels off.
func moveRow(r core.Row, part int) core.Row {
	vals := make([]dataformat.Value, 0, len(r.Values)+1)
	vals = append(vals, r.Values...)
	vals = append(vals, dataformat.IntVal(int64(part)))
	return core.Row{Values: vals}
}

// patch splices shipped arrivals into retained rows, walking each
// partition's new canonical sequence: retained rows come from the old image
// by id, moved rows consume the partition's next arrival and are
// byte-verified against the model's expectation. Any mismatch — wrong
// bytes, under- or over-delivery — aborts before commit.
func (e *Engine) patch(next []entry, seqs [][]int, moved map[int64]bool, arrivals [][]core.Row) ([][]core.Row, [][]int64, error) {
	if len(arrivals) != len(seqs) {
		return nil, nil, fmt.Errorf("executor produced %d partitions, model %d", len(arrivals), len(seqs))
	}
	oldPos := make(map[int64][2]int, len(e.assign))
	for q, ids := range e.partIDs {
		for i, id := range ids {
			oldPos[id] = [2]int{q, i}
		}
	}
	parts := make([][]core.Row, len(seqs))
	partIDs := make([][]int64, len(seqs))
	var gotBuf, wantBuf []byte
	for q, seq := range seqs {
		arr := arrivals[q]
		ai := 0
		rows := make([]core.Row, len(seq))
		ids := make([]int64, len(seq))
		for i, idx := range seq {
			en := next[idx]
			ids[i] = en.id
			if !moved[en.id] {
				pos, ok := oldPos[en.id]
				if !ok || pos[0] != q {
					return nil, nil, fmt.Errorf("partition %d: unmoved row id %d is not resident here", q, en.id)
				}
				rows[i] = e.parts[pos[0]][pos[1]]
				continue
			}
			if ai >= len(arr) {
				return nil, nil, fmt.Errorf("partition %d: shuffle delivered %d rows, patch needs more", q, len(arr))
			}
			got := arr[ai]
			ai++
			gotBuf, wantBuf = core.AppendRow(gotBuf[:0], got), core.AppendRow(wantBuf[:0], en.row)
			if !bytes.Equal(gotBuf, wantBuf) {
				return nil, nil, fmt.Errorf("partition %d: arrival %d differs from the canonical row", q, ai-1)
			}
			rows[i] = got
		}
		if ai != len(arr) {
			return nil, nil, fmt.Errorf("partition %d: %d undelivered arrivals left over", q, len(arr)-ai)
		}
		parts[q] = rows
		partIDs[q] = ids
	}
	return parts, partIDs, nil
}

// adopt takes a full executor output as the new resident state, verifying
// every partition byte-for-byte against the canonical sequences. Used at
// seed time and after a coalesce (where arrivals are the complete images).
func (e *Engine) adopt(seqs [][]int, parts [][]core.Row, np int) error {
	if len(parts) != len(seqs) {
		return fmt.Errorf("executor produced %d partitions, model %d", len(parts), len(seqs))
	}
	newParts := make([][]core.Row, len(seqs))
	newIDs := make([][]int64, len(seqs))
	assign := make(map[int64]int, len(e.entries))
	var gotBuf, wantBuf []byte
	for q, seq := range seqs {
		if len(parts[q]) != len(seq) {
			return fmt.Errorf("partition %d: model has %d rows, executor %d", q, len(seq), len(parts[q]))
		}
		ids := make([]int64, len(seq))
		for i, idx := range seq {
			en := e.entries[idx]
			gotBuf, wantBuf = core.AppendRow(gotBuf[:0], parts[q][i]), core.AppendRow(wantBuf[:0], en.row)
			if !bytes.Equal(gotBuf, wantBuf) {
				return fmt.Errorf("partition %d: row %d differs from the canonical row", q, i)
			}
			ids[i] = en.id
			assign[en.id] = q
		}
		newParts[q] = parts[q]
		newIDs[q] = ids
	}
	e.parts, e.partIDs, e.assign, e.np = newParts, newIDs, assign, np
	return nil
}

// commit atomically swaps in the patched state.
func (e *Engine) commit(next []entry, nextID int64, parts [][]core.Row, ids [][]int64, np int) {
	assign := make(map[int64]int, len(next))
	for q, pids := range ids {
		for _, id := range pids {
			assign[id] = q
		}
	}
	e.entries, e.nextID = next, nextID
	e.parts, e.partIDs, e.assign, e.np = parts, ids, assign, np
}

// runPatchPlan executes a one-job patch plan over the move rows, measuring
// just that run's makespan and traffic.
func (e *Engine) runPatchPlan(job core.Job, np int, moves []core.Row, opts ApplyOptions) (*core.Result, *core.RecoveryReport, error) {
	plan := &core.Plan{
		WorkflowID:    e.cfg.Plan.WorkflowID + "+" + job.JobID(),
		WorkflowName:  e.cfg.Plan.WorkflowName,
		InputSchema:   e.cfg.Plan.InputSchema,
		NumPartitions: np,
		Jobs:          []core.Job{job},
		FinalSchema:   core.NewRowSchema(e.cfg.Plan.InputSchema),
	}
	return e.execute(plan, moves, opts.Cancel)
}

// execute runs a plan over rows spread contiguously across the cluster,
// taking the resilient path when a Resilience config or a fault plan is
// present.
func (e *Engine) execute(plan *core.Plan, rows []core.Row, cancel <-chan struct{}) (*core.Result, *core.RecoveryReport, error) {
	execOpts := e.cfg.Exec
	execOpts.Cancel = cancel
	in := core.Input{LocalRows: spreadRows(rows, e.cfg.Cluster.Size())}
	if e.cfg.Resilience != nil || e.cfg.Cluster.FaultPlan() != nil {
		return core.ExecuteResilientOpts(e.cfg.Cluster, plan, in, e.cfg.Resilience, execOpts)
	}
	res, err := core.ExecuteOpts(e.cfg.Cluster, plan, in, execOpts)
	return res, nil, err
}

func (e *Engine) report(res *core.Result, rec *core.RecoveryReport, movedRows, relabeled, appended, deleted int) *Report {
	return &Report{
		MovedRows:     movedRows,
		RelabeledRows: relabeled,
		AppendedRows:  appended,
		DeletedRows:   deleted,
		ResidentRows:  len(e.entries),
		Makespan:      res.Makespan,
		ShuffleBytes:  res.ShuffleBytes,
		Recovery:      rec,
	}
}

// rowsView returns E's rows in arrival order (the from-scratch input an
// oracle run would read).
func (e *Engine) rowsView() []core.Row {
	out := make([]core.Row, len(e.entries))
	for i, en := range e.entries {
		out[i] = en.row
	}
	return out
}

// Rows returns a copy of E in arrival order.
func (e *Engine) Rows() []core.Row { return append([]core.Row(nil), e.rowsView()...) }

// IDs returns the resident row ids in E order (delete handles).
func (e *Engine) IDs() []int64 {
	out := make([]int64, len(e.entries))
	for i, en := range e.entries {
		out[i] = en.id
	}
	return out
}

// Len is the resident row count.
func (e *Engine) Len() int { return len(e.entries) }

// NumPartitions is the current partition count.
func (e *Engine) NumPartitions() int { return e.np }

// ModelName names the recognized plan shape backing the canonical model.
func (e *Engine) ModelName() string { return e.model.name() }

// Baseline is the seeding from-scratch run's result.
func (e *Engine) Baseline() *core.Result { return e.seed }

// Partitions returns the resident partition images. The outer slice is a
// copy; rows are shared — callers must not mutate them.
func (e *Engine) Partitions() [][]core.Row {
	return append([][]core.Row(nil), e.parts...)
}

// Checksum fingerprints the resident partitions with the scheme papard uses
// for its crash-recovery invariants (core.FingerprintPartitions).
func (e *Engine) Checksum() uint64 { return core.FingerprintPartitions(e.parts) }

// spreadRows splits rows into nranks contiguous chunks, mirroring what the
// input splitter hands each rank.
func spreadRows(rows []core.Row, nranks int) [][]core.Row {
	out := make([][]core.Row, nranks)
	for i := 0; i < nranks; i++ {
		lo := len(rows) * i / nranks
		hi := len(rows) * (i + 1) / nranks
		out[i] = rows[lo:hi]
	}
	return out
}
