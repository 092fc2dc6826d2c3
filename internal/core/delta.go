package core

// Incremental repartitioning plan nodes (ROADMAP item 3). A resident
// partition set is patched in place instead of being rebuilt: the host-side
// engine (internal/incremental) derives the set of rows whose partition
// changed under a delta batch and ships exactly those rows through the
// batched shuffle. The nodes below are the data-plane half of that design:
//
//   - DeltaJob ships a move set — rows that must land in a different
//     partition after appends/deletes — and assembles the arrivals per
//     destination, exactly like the tail of a Distribute job.
//   - RepartitionJob is the same exchange for a partition-count change,
//     where the move set is typically most of the data.
//   - CoalesceJob folds np partitions into a divisor count without any
//     all-to-all: every new partition is a union of whole old partitions,
//     so each rank relabels its resident rows locally (the Spark
//     repartition-vs-coalesce distinction).
//
// A move row is an ordinary data row with its destination partition
// appended as one extra trailing Long column. Encoding the routing into the
// dataset (instead of rank-indexed move lists) is what lets the resilient
// path absorb crashes mid-delta: checkpoint restore, orphan adoption and the
// Block rebalance redistribute the rows across the shrunk communicator, and
// every row still knows where it goes.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dataformat"
	"repro/internal/keyval"
	"repro/internal/mrmpi"
)

// CompareValues exposes the executor's column ordering (lexicographic once
// either side is text, numeric otherwise) so the incremental engine's
// canonical sort model orders rows exactly as runSort does.
func CompareValues(a, b dataformat.Value) int { return compareValues(a, b) }

// DeltaJob ships a delta batch's moved rows to their new partitions.
type DeltaJob struct {
	ID            string
	NumPartitions int
	// ScanRows is the global resident-row count the incremental engine
	// scanned to derive the move set; every rank charges its share, so the
	// derivation appears in the virtual makespan even though the canonical
	// bookkeeping runs host-side.
	ScanRows int
}

// JobID implements Job.
func (j *DeltaJob) JobID() string { return j.ID }

// Describe implements Job.
func (j *DeltaJob) Describe() string {
	return fmt.Sprintf("delta[%s] partitions=%d scan=%d", j.ID, j.NumPartitions, j.ScanRows)
}

// RepartitionJob ships the move set of a partition-count change.
type RepartitionJob struct {
	ID            string
	NumPartitions int
	ScanRows      int
}

// JobID implements Job.
func (j *RepartitionJob) JobID() string { return j.ID }

// Describe implements Job.
func (j *RepartitionJob) Describe() string {
	return fmt.Sprintf("repartition[%s] partitions=%d scan=%d", j.ID, j.NumPartitions, j.ScanRows)
}

// CoalesceJob folds partitions into a divisor count without a shuffle.
type CoalesceJob struct {
	ID            string
	NumPartitions int
	// FromPartitions is the pre-coalesce count (NumPartitions must divide
	// it; the engine validates, Describe reports).
	FromPartitions int
	ScanRows       int
}

// JobID implements Job.
func (j *CoalesceJob) JobID() string { return j.ID }

// Describe implements Job.
func (j *CoalesceJob) Describe() string {
	return fmt.Sprintf("coalesce[%s] partitions=%d<-%d scan=%d", j.ID, j.NumPartitions, j.FromPartitions, j.ScanRows)
}

// splitMoveRow peels the trailing destination column off a move row.
func splitMoveRow(row Row, np int) (int, Row, error) {
	n := len(row.Values)
	if n < 2 {
		return 0, Row{}, fmt.Errorf("core: move row has %d values (needs payload + destination)", n)
	}
	dest := row.Values[n-1]
	if dest.IsStr {
		return 0, Row{}, fmt.Errorf("core: move row destination %q is not an integer", dest.Str)
	}
	part := int(dest.Int)
	if part < 0 || part >= np {
		return 0, Row{}, fmt.Errorf("core: move row destination %d out of range [0,%d)", part, np)
	}
	return part, Row{Values: row.Values[:n-1]}, nil
}

// chargeDeriveScan bills each rank its share of the host-side move-set
// derivation (one pass over the resident rows).
func (st *execState) chargeDeriveScan(scanRows int) {
	p := st.comm.Size()
	share := (scanRows + p - 1) / p
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(share, 0))
}

// runMoves is the shared DeltaJob/RepartitionJob body: shuffle each move row
// to the rank hosting its destination partition and assemble arrivals per
// partition. Per-destination arrival order is source-rank-major with emit
// order inside a source (the mergeFrames invariant), i.e. the global move
// order filtered to the destination — which is what lets the engine's patch
// walk consume arrivals strictly in order.
func (st *execState) runMoves(id string, np, scanRows int) error {
	st.chargeDeriveScan(scanRows)
	rows := st.data.Rows
	if err := st.mr.Map(func(emit mrmpi.Emitter) error {
		var key [4]byte
		var buf []byte
		for _, row := range rows {
			part, bare, err := splitMoveRow(row, np)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			binary.LittleEndian.PutUint32(key[:], uint32(part))
			buf = AppendEntry(buf[:0], bare, nil)
			emit(key[:], buf)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.mr.Aggregate(bucketPartitioner); err != nil {
		return err
	}
	defer st.comm.Cluster().Span("core", "patch")()
	st.partitions = map[int][]Row{}
	// Arrivals are spliced one by one into long-lived resident images
	// whose other rows come and go with later batches, so each arrival gets
	// its own allocation: a shared slab would stay pinned by any survivor.
	dec := NewRowDecoder(0, 0)
	if err := st.mr.Each(func(kv keyval.KV) error {
		part := int(binary.LittleEndian.Uint32(kv.Key))
		arrived, err := dec.AppendEntryRows(st.partitions[part], kv.Value)
		if err != nil {
			return err
		}
		st.partitions[part] = arrived
		return nil
	}); err != nil {
		return err
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(st.mr.Pairs(), st.mr.PayloadBytes()))
	return nil
}

// runCoalesce relabels resident rows locally — no exchange. Every new
// partition is a union of whole old partitions (the engine only emits a
// coalesce when the index arithmetic guarantees that), so rows never cross
// ranks; the host assembles fragments in rank order exactly as the elided
// distribute does.
func (st *execState) runCoalesce(j *CoalesceJob) error {
	st.chargeDeriveScan(j.ScanRows)
	defer st.comm.Cluster().Span("core", "patch")()
	st.partitions = map[int][]Row{}
	for _, row := range st.data.Rows {
		part, bare, err := splitMoveRow(row, j.NumPartitions)
		if err != nil {
			return fmt.Errorf("%s: %w", j.ID, err)
		}
		st.partitions[part] = append(st.partitions[part], bare)
	}
	st.comm.Cluster().Charge(st.comm.Cluster().Compute().ScanCost(len(st.data.Rows), 0))
	return nil
}
