package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/vtime"
)

// This file implements the paper's §V extension: "It is possible to extend
// PaPar to support the dynamic workload redistribution. For example, when
// repartitioning intermediate data from Mappers to Reducers is necessary,
// we can use the PaPar distribution function with the cyclic policy to
// rebalance the key-value pairs between reducers."
//
// Rebalance is that distribution function applied to live, in-memory data:
// a collective that takes each rank's current dataset fragment and
// redistributes the entries so every rank holds a near-equal share. The
// cyclic policy stripes entries (best for breaking up value skew); the
// block policy keeps the global order contiguous (best when downstream
// consumers scan ranges).

// RebalanceStats reports what a rebalance did.
type RebalanceStats struct {
	// BeforeMax/AfterMax are the largest per-rank entry counts.
	BeforeMax int64
	AfterMax  int64
	// Moved is the number of entries that changed ranks (global).
	Moved int64
	// Elapsed is the virtual time this rank spent in the collective.
	Elapsed vtime.Duration
}

// Rebalance redistributes d's entries across all ranks of comm under the
// policy. All ranks must call it collectively with fragments of the same
// dataset. The returned dataset holds this rank's new fragment; global
// entry order (rank-major) is preserved for Block and striped for Cyclic.
func Rebalance(comm *mpi.Comm, d *Dataset, policy DistrPolicy) (*Dataset, *RebalanceStats, error) {
	if !policy.IndexBased() {
		return nil, nil, fmt.Errorf("core: rebalance supports cyclic and block policies, not %v", policy)
	}
	start := comm.Cluster().Clock().Now()
	p := comm.Size()
	me := comm.Rank()
	n := int64(d.Len())

	offset, total, err := comm.ExscanInt64(n)
	if err != nil {
		return nil, nil, err
	}
	// Gather the pre-balance maximum for the stats.
	beforeMax, err := allreduceMax(comm, n)
	if err != nil {
		return nil, nil, err
	}

	// Route each local entry to its destination rank: the distribute
	// operator's placement, with ranks as the partitions.
	outbound := make([][]byte, p)
	var moved int64
	var entry []byte
	for i := 0; i < d.Len(); i++ {
		row, group := d.entry(i)
		dst, err := policy.Place(p, offset+int64(i), total, row, group)
		if err != nil {
			return nil, nil, err
		}
		entry = AppendEntry(entry[:0], row, group)
		if dst != me {
			moved++
		}
		outbound[dst] = appendFramed(outbound[dst], entry)
	}
	comm.Cluster().Charge(comm.Cluster().Compute().ScanCost(int(n), 0))

	recv, err := comm.Alltoall(outbound)
	if err != nil {
		return nil, nil, err
	}
	out := &Dataset{Schema: d.Schema, Packed: d.Packed}
	for _, buf := range recv {
		entries, err := splitFramed(buf)
		if err != nil {
			return nil, nil, err
		}
		dec := NewRowDecoder(len(entries), 0)
		for _, e := range entries {
			row, group, err := dec.Entry(e)
			if err != nil {
				return nil, nil, err
			}
			if group != nil {
				out.Groups = append(out.Groups, *group)
			} else {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	comm.Cluster().Charge(comm.Cluster().Compute().ScanCost(out.Len(), 0))

	afterMax, err := allreduceMax(comm, int64(out.Len()))
	if err != nil {
		return nil, nil, err
	}
	globalMoved, err := allreduceSum(comm, moved)
	if err != nil {
		return nil, nil, err
	}
	return out, &RebalanceStats{
		BeforeMax: beforeMax,
		AfterMax:  afterMax,
		Moved:     globalMoved,
		Elapsed:   comm.Cluster().Clock().Now() - start,
	}, nil
}

func allreduceMax(comm *mpi.Comm, v int64) (int64, error) {
	return allreduceInt64(comm, v, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

func allreduceSum(comm *mpi.Comm, v int64) (int64, error) {
	return allreduceInt64(comm, v, func(a, b int64) int64 { return a + b })
}

func allreduceInt64(comm *mpi.Comm, v int64, fold func(a, b int64) int64) (int64, error) {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(v))
	res, err := comm.Allreduce(buf, func(a, b []byte) []byte {
		var x, y int64
		if a != nil {
			x = int64(binary.LittleEndian.Uint64(a))
		}
		if b != nil {
			y = int64(binary.LittleEndian.Uint64(b))
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(fold(x, y)))
		return out
	})
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(res)), nil
}

func appendFramed(buf, entry []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entry)))
	return append(buf, entry...)
}

func splitFramed(buf []byte) ([][]byte, error) {
	var out [][]byte
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("core: truncated frame header")
		}
		l := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < l {
			return nil, fmt.Errorf("core: truncated frame")
		}
		out = append(out, buf[:l:l])
		buf = buf[l:]
	}
	return out, nil
}
