// Package core implements PaPar itself: the operator taxonomy (§III-B), the
// workflow planner/code generator (§III-D), and the runtime that executes
// generated partitioners on the MapReduce-over-MPI backend.
//
// A workflow flows Datasets between jobs. A Dataset is either flat — a
// distributed collection of Rows — or packed — a distributed collection of
// Groups, the output of the pack format operator. Each Row is the field
// values of one input element (per the input schema) plus any attribute
// columns appended by add-on operators; the RowSchema names the columns at
// each point of the workflow so that operators can bind keys by name.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/dataformat"
)

// Row is one element flowing through a workflow.
type Row struct {
	Values []dataformat.Value
}

// Clone deep-copies the row.
func (r Row) Clone() Row {
	return Row{Values: append([]dataformat.Value(nil), r.Values...)}
}

// String renders the row in the paper's tuple notation.
func (r Row) String() string {
	out := "{"
	for i, v := range r.Values {
		if i > 0 {
			out += ", "
		}
		out += v.AsString()
	}
	return out + "}"
}

// RowSchema names the columns of rows at one point in a workflow. It starts
// as the input schema's field list and grows when add-on operators append
// attributes (§III-B: add-on operators "will add or delete data
// attributes").
type RowSchema struct {
	Fields []string
	Types  []dataformat.FieldType
}

// NewRowSchema derives the starting row schema from an input schema.
func NewRowSchema(s *dataformat.Schema) *RowSchema {
	rs := &RowSchema{
		Fields: make([]string, len(s.Fields)),
		Types:  make([]dataformat.FieldType, len(s.Fields)),
	}
	for i, f := range s.Fields {
		rs.Fields[i] = f.Name
		rs.Types[i] = f.Type
	}
	return rs
}

// Clone copies the schema.
func (rs *RowSchema) Clone() *RowSchema {
	return &RowSchema{
		Fields: append([]string(nil), rs.Fields...),
		Types:  append([]dataformat.FieldType(nil), rs.Types...),
	}
}

// Index returns the column position of the named field, or -1.
func (rs *RowSchema) Index(name string) int {
	for i, f := range rs.Fields {
		if f == name {
			return i
		}
	}
	return -1
}

// WithAttr returns a copy of the schema with one appended attribute column.
func (rs *RowSchema) WithAttr(name string, t dataformat.FieldType) (*RowSchema, error) {
	if rs.Index(name) >= 0 {
		return nil, fmt.Errorf("core: schema already has column %q", name)
	}
	out := rs.Clone()
	out.Fields = append(out.Fields, name)
	out.Types = append(out.Types, t)
	return out, nil
}

// Project returns a copy keeping only the first n columns — used when
// output must drop appended attributes to recover the input format.
func (rs *RowSchema) Project(n int) *RowSchema {
	out := rs.Clone()
	out.Fields = out.Fields[:n]
	out.Types = out.Types[:n]
	return out
}

// Group is one packed entry: a group key and its member rows — the output of
// the pack format operator (§III-B), e.g. all edges sharing an in-vertex.
type Group struct {
	Key  dataformat.Value
	Rows []Row
}

// Dataset is a rank-local fragment of the distributed data between jobs.
// Exactly one of Rows/Groups is meaningful depending on Packed.
type Dataset struct {
	Schema *RowSchema
	Packed bool
	Rows   []Row
	Groups []Group
}

// Len returns the number of top-level entries (rows, or groups when packed).
func (d *Dataset) Len() int {
	if d.Packed {
		return len(d.Groups)
	}
	return len(d.Rows)
}

// entry returns top-level entry i in the (row, group) form AppendEntry and
// Place take: the group when packed, else the row.
func (d *Dataset) entry(i int) (Row, *Group) {
	if d.Packed {
		return Row{}, &d.Groups[i]
	}
	return d.Rows[i], nil
}

// TotalRows returns the number of member rows, unpacking groups.
func (d *Dataset) TotalRows() int {
	if !d.Packed {
		return len(d.Rows)
	}
	n := 0
	for _, g := range d.Groups {
		n += len(g.Rows)
	}
	return n
}

// Row codec. Rows and packed groups cross every job boundary in one
// little-endian wire format:
//
//	value: 0 | int64              or  1 | uint32 len | bytes
//	row:   uint32 count | value...
//	group: key value | uint32 rows | repeat{ uint32 len | row }
//	entry: 0 | row                or  1 | group
//
// The entry tag lets branches of mixed format share one shuffle. Encoders
// append to a caller's buffer so emit loops reuse one buffer for every row;
// decoding goes through RowDecoder, which carves row values out of shared
// slabs (see DESIGN.md, "Rows: codec and ownership").

const (
	entryRow   byte = 0
	entryGroup byte = 1

	// minValueBytes is the smallest encoded value (an empty string) and
	// minGroupRowBytes the smallest encoded group member (a length prefix
	// and an empty row): untrusted counts are checked against them before
	// anything is allocated.
	minValueBytes    = 5
	minGroupRowBytes = 8

	// maxSlabValues caps one decode slab.
	maxSlabValues = 8192
)

func appendValue(dst []byte, v dataformat.Value) []byte {
	if v.IsStr {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Str)))
		return append(dst, v.Str...)
	}
	dst = append(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
}

// AppendRow appends the encoding of r to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Values)))
	for _, v := range r.Values {
		dst = appendValue(dst, v)
	}
	return dst
}

// appendGroup appends the encoding of g to dst, back-patching each member's
// length prefix in place.
func appendGroup(dst []byte, g Group) []byte {
	dst = appendValue(dst, g.Key)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Rows)))
	for _, r := range g.Rows {
		at := len(dst)
		dst = AppendRow(append(dst, 0, 0, 0, 0), r)
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// AppendEntry appends one tagged shuffle entry to dst: the packed group g
// when it is non-nil, else the row r.
func AppendEntry(dst []byte, r Row, g *Group) []byte {
	if g != nil {
		return appendGroup(append(dst, entryGroup), *g)
	}
	return AppendRow(append(dst, entryRow), r)
}

// EncodeRow serializes a row for the shuffle.
func EncodeRow(r Row) []byte { return AppendRow(nil, r) }

// EncodeGroup serializes a packed group for the shuffle.
func EncodeGroup(g Group) []byte { return appendGroup(nil, g) }

// DecodeRow parses a buffer produced by EncodeRow.
func DecodeRow(buf []byte) (Row, error) { return NewRowDecoder(1, 0).Row(buf) }

// DecodeGroup parses a buffer produced by EncodeGroup.
func DecodeGroup(buf []byte) (Group, error) { return NewRowDecoder(0, 0).Group(buf) }

// DecodeEntry parses a buffer produced by AppendEntry: a row, or a packed
// group (g non-nil).
func DecodeEntry(buf []byte) (r Row, g *Group, err error) { return NewRowDecoder(1, 0).Entry(buf) }

// RowDecoder decodes rows, groups and tagged entries. Decoded rows share
// storage: each row's values are a full slice expression over a slab shared
// with its neighbours, capped at the row's own values plus the decoder's
// spare capacity, so appending up to spare attributes stays in place and no
// append can reach a neighbour. String values are substrings of one string
// copy of each decoded buffer, so decoded rows never alias it.
type RowDecoder struct {
	slab  []dataformat.Value // unused tail of the current slab
	rows  int                // rows still expected; sizes the next slab
	spare int                // extra capacity per row
	src   []byte             // buffer being decoded
	str   string             // string(src), made on its first non-empty string
}

// NewRowDecoder returns a decoder expecting about rows rows (the shuffle's
// pair count; slabs are sized from it and capped) and reserving spare
// capacity in every row for appended attributes.
func NewRowDecoder(rows, spare int) *RowDecoder {
	return &RowDecoder{rows: rows, spare: spare}
}

// Row decodes a buffer holding exactly one encoded row.
func (d *RowDecoder) Row(buf []byte) (Row, error) {
	d.begin(buf)
	r, rest, err := d.row(buf)
	if err != nil {
		return Row{}, err
	}
	if len(rest) != 0 {
		return Row{}, fmt.Errorf("core: %d trailing bytes after row", len(rest))
	}
	return r, nil
}

// Group decodes a buffer holding exactly one encoded group.
func (d *RowDecoder) Group(buf []byte) (Group, error) {
	d.begin(buf)
	key, rows, err := d.group(nil, buf)
	if err != nil {
		return Group{}, err
	}
	return Group{Key: key, Rows: rows}, nil
}

// Entry decodes one tagged entry: a row, or a packed group (g non-nil).
func (d *RowDecoder) Entry(buf []byte) (r Row, g *Group, err error) {
	if len(buf) < 1 {
		return Row{}, nil, fmt.Errorf("core: empty entry")
	}
	switch buf[0] {
	case entryRow:
		r, err = d.Row(buf[1:])
		return r, nil, err
	case entryGroup:
		grp, err := d.Group(buf[1:])
		if err != nil {
			return Row{}, nil, err
		}
		return Row{}, &grp, nil
	default:
		return Row{}, nil, fmt.Errorf("core: unknown entry tag %d", buf[0])
	}
}

// AppendEntryRows decodes one tagged entry and appends its rows (a group's
// members, unpacked) to dst.
func (d *RowDecoder) AppendEntryRows(dst []Row, buf []byte) ([]Row, error) {
	if len(buf) < 1 {
		return dst, fmt.Errorf("core: empty entry")
	}
	switch buf[0] {
	case entryRow:
		r, err := d.Row(buf[1:])
		if err != nil {
			return dst, err
		}
		return append(dst, r), nil
	case entryGroup:
		d.begin(buf[1:])
		_, dst, err := d.group(dst, buf[1:])
		return dst, err
	default:
		return dst, fmt.Errorf("core: unknown entry tag %d", buf[0])
	}
}

func (d *RowDecoder) begin(buf []byte) {
	d.src, d.str = buf, ""
}

// group decodes the group at the front of buf, which must hold exactly it,
// appending its members to dst.
func (d *RowDecoder) group(dst []Row, buf []byte) (dataformat.Value, []Row, error) {
	key, buf, err := d.value(buf)
	if err != nil {
		return dataformat.Value{}, dst, err
	}
	if len(buf) < 4 {
		return dataformat.Value{}, dst, fmt.Errorf("core: truncated group header")
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(n)*minGroupRowBytes > uint64(len(buf)) {
		return dataformat.Value{}, dst, fmt.Errorf("core: group claims %d rows in %d bytes", n, len(buf))
	}
	d.rows = max(d.rows, int(n))
	dst = slices.Grow(dst, int(n))
	for i := uint32(0); i < n; i++ {
		if len(buf) < 4 {
			return dataformat.Value{}, dst, fmt.Errorf("core: truncated group row header")
		}
		l := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < l {
			return dataformat.Value{}, dst, fmt.Errorf("core: truncated group row")
		}
		r, rest, err := d.row(buf)
		if err != nil {
			return dataformat.Value{}, dst, err
		}
		if used := len(buf) - len(rest); used != int(l) {
			return dataformat.Value{}, dst, fmt.Errorf("core: group row of %d bytes has a %d-byte prefix", used, l)
		}
		buf = rest
		dst = append(dst, r)
	}
	if len(buf) != 0 {
		return dataformat.Value{}, dst, fmt.Errorf("core: %d trailing bytes after group", len(buf))
	}
	return key, dst, nil
}

// row decodes the row at the front of buf, returning the rest.
func (d *RowDecoder) row(buf []byte) (Row, []byte, error) {
	if len(buf) < 4 {
		return Row{}, nil, fmt.Errorf("core: truncated row header")
	}
	n := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(n)*minValueBytes > uint64(len(buf)) {
		return Row{}, nil, fmt.Errorf("core: row claims %d values in %d bytes", n, len(buf))
	}
	vals := d.alloc(int(n))
	for i := range vals {
		var err error
		if vals[i], buf, err = d.value(buf); err != nil {
			return Row{}, nil, err
		}
	}
	return Row{Values: vals}, buf, nil
}

// alloc carves n values plus the spare capacity from the current slab,
// starting a new slab sized for the rows still expected when it runs out.
func (d *RowDecoder) alloc(n int) []dataformat.Value {
	need := n + d.spare
	if need == 0 {
		return []dataformat.Value{}
	}
	if len(d.slab) < need {
		size := min(max(d.rows, 1), maxSlabValues) * need
		d.slab = make([]dataformat.Value, max(min(size, maxSlabValues), need))
	}
	vals := d.slab[:n:need]
	d.slab = d.slab[need:]
	d.rows--
	return vals
}

func (d *RowDecoder) value(buf []byte) (dataformat.Value, []byte, error) {
	if len(buf) < 1 {
		return dataformat.Value{}, nil, fmt.Errorf("core: truncated value")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case 0:
		if len(buf) < 8 {
			return dataformat.Value{}, nil, fmt.Errorf("core: truncated int value")
		}
		v := dataformat.IntVal(int64(binary.LittleEndian.Uint64(buf)))
		return v, buf[8:], nil
	case 1:
		if len(buf) < 4 {
			return dataformat.Value{}, nil, fmt.Errorf("core: truncated string header")
		}
		n := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < n {
			return dataformat.Value{}, nil, fmt.Errorf("core: truncated string value")
		}
		return dataformat.StrVal(d.substr(buf, int(n))), buf[n:], nil
	default:
		return dataformat.Value{}, nil, fmt.Errorf("core: unknown value tag %d", tag)
	}
}

// substr returns the n bytes at the front of rest, a suffix of the buffer
// being decoded, as a substring of that buffer's one string copy.
func (d *RowDecoder) substr(rest []byte, n int) string {
	if n == 0 {
		return ""
	}
	if d.str == "" {
		d.str = string(d.src)
	}
	off := len(d.src) - len(rest)
	return d.str[off : off+n]
}

// FingerprintPartitions hashes partitions with FNV-64a over each encoded row
// followed by a 0 byte, and a 0xFF byte after each partition. papard's
// crash-recovery and retry invariants and the incremental engine's journal
// checksums are stated in terms of it.
func FingerprintPartitions(parts [][]Row) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, part := range parts {
		for _, r := range part {
			buf = append(AppendRow(buf[:0], r), 0)
			h.Write(buf)
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

// RecordsToRows converts parsed input records into workflow rows, copying
// every record's values into one shared slab (each row capped at its own
// values, so appends never reach a neighbour).
func RecordsToRows(recs []dataformat.Record) []Row {
	n := 0
	for _, rec := range recs {
		n += len(rec.Values)
	}
	slab := make([]dataformat.Value, 0, n)
	rows := make([]Row, len(recs))
	for i, rec := range recs {
		at := len(slab)
		slab = append(slab, rec.Values...)
		rows[i] = Row{Values: slab[at:len(slab):len(slab)]}
	}
	return rows
}

// RowsToRecords converts rows back to records of the given file schema,
// verifying the arity matches (attributes must have been dropped first).
func RowsToRecords(s *dataformat.Schema, rows []Row) ([]dataformat.Record, error) {
	w := len(s.Fields)
	recs := make([]dataformat.Record, len(rows))
	slab := make([]dataformat.Value, 0, w*len(rows))
	for i, r := range rows {
		if len(r.Values) != w {
			return nil, fmt.Errorf("core: row %d has %d values for %d schema fields", i, len(r.Values), w)
		}
		at := len(slab)
		slab = append(slab, r.Values...)
		recs[i] = dataformat.Record{Schema: s, Values: slab[at:len(slab):len(slab)]}
	}
	return recs, nil
}
