package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataformat"
	"repro/internal/mrmpi"
)

// This file serializes a rank's execState for job-boundary checkpointing:
// the main-line dataset, the split side branches and any produced
// partitions, framed with the same length-prefix scheme the rebalance
// collective uses. Pages are self-describing (schema included) so a
// survivor can adopt a dead rank's fragment without extra coordination.

func encodeDataset(d *Dataset) []byte {
	var out []byte
	meta := []byte{0}
	if d.Packed {
		meta[0] = 1
	}
	out = appendFramed(out, meta)
	var sch []byte
	if d.Schema != nil {
		for i := range d.Schema.Fields {
			sch = appendFramed(sch, []byte(d.Schema.Fields[i]))
			sch = appendFramed(sch, []byte{byte(d.Schema.Types[i])})
		}
	}
	out = appendFramed(out, sch)
	var payload, entry []byte
	if d.Packed {
		for _, g := range d.Groups {
			entry = appendGroup(entry[:0], g)
			payload = appendFramed(payload, entry)
		}
	} else {
		for _, r := range d.Rows {
			entry = AppendRow(entry[:0], r)
			payload = appendFramed(payload, entry)
		}
	}
	return appendFramed(out, payload)
}

func decodeDataset(buf []byte) (*Dataset, error) {
	frames, err := splitFramed(buf)
	if err != nil || len(frames) != 3 || len(frames[0]) != 1 {
		return nil, fmt.Errorf("core: corrupt dataset snapshot")
	}
	d := &Dataset{Packed: frames[0][0] == 1}
	schFrames, err := splitFramed(frames[1])
	if err != nil || len(schFrames)%2 != 0 {
		return nil, fmt.Errorf("core: corrupt dataset schema snapshot")
	}
	d.Schema = &RowSchema{}
	for i := 0; i < len(schFrames); i += 2 {
		if len(schFrames[i+1]) != 1 {
			return nil, fmt.Errorf("core: corrupt schema field type")
		}
		d.Schema.Fields = append(d.Schema.Fields, string(schFrames[i]))
		d.Schema.Types = append(d.Schema.Types, dataformat.FieldType(schFrames[i+1][0]))
	}
	entries, err := splitFramed(frames[2])
	if err != nil {
		return nil, err
	}
	dec := NewRowDecoder(len(entries), 0)
	for _, e := range entries {
		if d.Packed {
			g, err := dec.Group(e)
			if err != nil {
				return nil, err
			}
			d.Groups = append(d.Groups, g)
		} else {
			r, err := dec.Row(e)
			if err != nil {
				return nil, err
			}
			d.Rows = append(d.Rows, r)
		}
	}
	return d, nil
}

// snapshotPage serializes this rank's full execution state (data, side
// branches, partitions) into one checkpoint page.
func (st *execState) snapshotPage() []byte {
	var out []byte
	out = appendFramed(out, encodeDataset(st.data))

	names := make([]string, 0, len(st.side))
	for n := range st.side {
		names = append(names, n)
	}
	sort.Strings(names)
	var sideBuf []byte
	for _, n := range names {
		sideBuf = appendFramed(sideBuf, []byte(n))
		sideBuf = appendFramed(sideBuf, encodeDataset(st.side[n]))
	}
	out = appendFramed(out, sideBuf)

	ids := make([]int, 0, len(st.partitions))
	for id := range st.partitions {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var partBuf, rowBuf []byte
	for _, id := range ids {
		partBuf = appendFramed(partBuf, binary.LittleEndian.AppendUint32(nil, uint32(id)))
		var rowsBuf []byte
		for _, row := range st.partitions[id] {
			rowBuf = AppendRow(rowBuf[:0], row)
			rowsBuf = appendFramed(rowsBuf, rowBuf)
		}
		partBuf = appendFramed(partBuf, rowsBuf)
	}
	return appendFramed(out, partBuf)
}

// pageState is a decoded checkpoint page.
type pageState struct {
	data       *Dataset
	side       map[string]*Dataset
	sideNames  []string
	partitions map[int][]Row
	partIDs    []int
}

func decodePage(buf []byte) (*pageState, error) {
	frames, err := splitFramed(buf)
	if err != nil || len(frames) != 3 {
		return nil, fmt.Errorf("core: corrupt state snapshot")
	}
	ps := &pageState{side: map[string]*Dataset{}, partitions: map[int][]Row{}}
	if ps.data, err = decodeDataset(frames[0]); err != nil {
		return nil, err
	}
	sideFrames, err := splitFramed(frames[1])
	if err != nil || len(sideFrames)%2 != 0 {
		return nil, fmt.Errorf("core: corrupt side snapshot")
	}
	for i := 0; i < len(sideFrames); i += 2 {
		d, err := decodeDataset(sideFrames[i+1])
		if err != nil {
			return nil, err
		}
		name := string(sideFrames[i])
		ps.side[name] = d
		ps.sideNames = append(ps.sideNames, name)
	}
	partFrames, err := splitFramed(frames[2])
	if err != nil || len(partFrames)%2 != 0 {
		return nil, fmt.Errorf("core: corrupt partition snapshot")
	}
	for i := 0; i < len(partFrames); i += 2 {
		if len(partFrames[i]) != 4 {
			return nil, fmt.Errorf("core: corrupt partition id")
		}
		id := int(uint32(partFrames[i][0]) | uint32(partFrames[i][1])<<8 |
			uint32(partFrames[i][2])<<16 | uint32(partFrames[i][3])<<24)
		rowFrames, err := splitFramed(partFrames[i+1])
		if err != nil {
			return nil, err
		}
		rows := make([]Row, 0, len(rowFrames))
		dec := NewRowDecoder(len(rowFrames), 0)
		for _, rf := range rowFrames {
			row, err := dec.Row(rf)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		ps.partitions[id] = rows
		ps.partIDs = append(ps.partIDs, id)
	}
	return ps, nil
}

// restoreFrom rebuilds this rank's state from checkpoint pages: its own page
// plus adopted orphan pages of dead ranks, spliced in original rank order
// (prepends, own, appends) so the global rank-major entry order of every
// dataset survives the recovery. Missing orphan pages (a rank that died
// before its first checkpoint) are skipped; the own page is required.
func (st *execState) restoreFrom(r *cluster.Rank, store *mrmpi.CheckpointStore, stage int, prepends []int, appends []int) error {
	load := func(rank int, required bool) (*pageState, error) {
		page, ok := store.Page(stage, rank)
		if !ok {
			if required {
				return nil, fmt.Errorf("core: no checkpoint page for job %d rank %d", stage, rank)
			}
			return nil, nil
		}
		r.Charge(mrmpi.CheckpointCost(len(page)))
		return decodePage(page)
	}
	var pages []*pageState
	var own *pageState
	for _, d := range prepends {
		ps, err := load(d, false)
		if err != nil {
			return err
		}
		if ps != nil {
			pages = append(pages, ps)
		}
	}
	ownPS, err := load(r.ID(), true)
	if err != nil {
		return err
	}
	own = ownPS
	pages = append(pages, own)
	for _, d := range appends {
		ps, err := load(d, false)
		if err != nil {
			return err
		}
		if ps != nil {
			pages = append(pages, ps)
		}
	}

	// Concatenate fragments in adoption order. Schema and packed-ness come
	// from the own page (all ranks agree at a job boundary, SPMD).
	merged := &Dataset{Schema: own.data.Schema, Packed: own.data.Packed}
	side := map[string]*Dataset{}
	partitions := map[int][]Row{}
	havePartitions := false
	for _, ps := range pages {
		merged.Rows = append(merged.Rows, ps.data.Rows...)
		merged.Groups = append(merged.Groups, ps.data.Groups...)
		for _, name := range ps.sideNames {
			frag := ps.side[name]
			dst, ok := side[name]
			if !ok {
				dst = &Dataset{Schema: frag.Schema, Packed: frag.Packed}
				side[name] = dst
			}
			dst.Rows = append(dst.Rows, frag.Rows...)
			dst.Groups = append(dst.Groups, frag.Groups...)
		}
		for _, id := range ps.partIDs {
			partitions[id] = append(partitions[id], ps.partitions[id]...)
			havePartitions = true
		}
	}
	st.data = merged
	st.side = side
	if havePartitions {
		st.partitions = partitions
	} else {
		st.partitions = nil
	}
	return nil
}
