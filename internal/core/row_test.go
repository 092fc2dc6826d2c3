package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataformat"
)

func testSchema() *dataformat.Schema {
	return &dataformat.Schema{
		ID: "blast_db", Binary: true, StartPosition: 32,
		Fields: []dataformat.Field{
			{Name: "seq_start", Type: dataformat.Integer},
			{Name: "seq_size", Type: dataformat.Integer},
			{Name: "desc_start", Type: dataformat.Integer},
			{Name: "desc_size", Type: dataformat.Integer},
		},
	}
}

func intRow(vals ...int64) Row {
	r := Row{Values: make([]dataformat.Value, len(vals))}
	for i, v := range vals {
		r.Values[i] = dataformat.IntVal(v)
	}
	return r
}

func TestRowCloneIndependent(t *testing.T) {
	r := intRow(1, 2)
	c := r.Clone()
	c.Values[0] = dataformat.IntVal(99)
	if r.Values[0].Int != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestRowStringPaperNotation(t *testing.T) {
	if got := intRow(0, 94, 0, 74).String(); got != "{0, 94, 0, 74}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewRowSchema(t *testing.T) {
	rs := NewRowSchema(testSchema())
	if len(rs.Fields) != 4 || rs.Index("seq_size") != 1 || rs.Index("none") != -1 {
		t.Fatalf("row schema = %+v", rs)
	}
}

func TestRowSchemaWithAttr(t *testing.T) {
	rs := NewRowSchema(testSchema())
	rs2, err := rs.WithAttr("indegree", dataformat.Long)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Index("indegree") != 4 {
		t.Fatalf("attr index = %d", rs2.Index("indegree"))
	}
	if rs.Index("indegree") != -1 {
		t.Fatal("WithAttr mutated the receiver")
	}
	if _, err := rs2.WithAttr("indegree", dataformat.Long); err == nil {
		t.Fatal("duplicate attr accepted")
	}
}

func TestRowSchemaProject(t *testing.T) {
	rs := NewRowSchema(testSchema())
	rs2, _ := rs.WithAttr("x", dataformat.Long)
	back := rs2.Project(4)
	if !reflect.DeepEqual(back.Fields, rs.Fields) {
		t.Fatalf("Project = %v", back.Fields)
	}
}

func TestEncodeDecodeRow(t *testing.T) {
	rows := []Row{
		intRow(),
		intRow(1, -2, 3),
		{Values: []dataformat.Value{dataformat.StrVal("vertex"), dataformat.IntVal(7)}},
		{Values: []dataformat.Value{dataformat.StrVal("")}},
	}
	for i, r := range rows {
		got, err := DecodeRow(EncodeRow(r))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(got.Values) != len(r.Values) {
			t.Fatalf("row %d arity mismatch", i)
		}
		for j := range r.Values {
			if got.Values[j].AsString() != r.Values[j].AsString() ||
				got.Values[j].IsStr != r.Values[j].IsStr {
				t.Fatalf("row %d value %d: %v vs %v", i, j, got.Values[j], r.Values[j])
			}
		}
	}
}

func TestDecodeRowErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 0},
		{1, 0, 0, 0},                       // declares 1 value, no payload
		{1, 0, 0, 0, 9},                    // unknown tag
		{1, 0, 0, 0, 0, 1, 2},              // truncated int
		{1, 0, 0, 0, 1, 5, 0, 0},           // truncated string header
		{1, 0, 0, 0, 1, 5, 0, 0, 0, 'a'},   // truncated string
		append(EncodeRow(intRow(1)), 0xFF), // trailing bytes
	}
	for i, buf := range cases {
		if _, err := DecodeRow(buf); err == nil {
			t.Errorf("case %d: DecodeRow succeeded", i)
		}
	}
}

func TestEncodeDecodeGroup(t *testing.T) {
	g := Group{
		Key:  dataformat.StrVal("1"),
		Rows: []Row{intRow(2, 1, 4), intRow(3, 1, 4)},
	}
	got, err := DecodeGroup(EncodeGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.Key.AsString() != "1" || len(got.Rows) != 2 {
		t.Fatalf("group = %+v", got)
	}
	if got.Rows[1].Values[0].Int != 3 {
		t.Fatalf("member row lost: %v", got.Rows[1])
	}
}

func TestDecodeGroupErrors(t *testing.T) {
	good := EncodeGroup(Group{Key: dataformat.IntVal(1), Rows: []Row{intRow(1)}})
	cases := [][]byte{
		nil,
		good[:5],
		good[:len(good)-2],
		append(append([]byte(nil), good...), 1),
	}
	for i, buf := range cases {
		if _, err := DecodeGroup(buf); err == nil {
			t.Errorf("case %d: DecodeGroup succeeded", i)
		}
	}
}

func TestDatasetCounts(t *testing.T) {
	flat := &Dataset{Rows: []Row{intRow(1), intRow(2)}}
	if flat.Len() != 2 || flat.TotalRows() != 2 {
		t.Fatalf("flat counts: %d, %d", flat.Len(), flat.TotalRows())
	}
	packed := &Dataset{Packed: true, Groups: []Group{
		{Key: dataformat.IntVal(1), Rows: []Row{intRow(1), intRow(2)}},
		{Key: dataformat.IntVal(2), Rows: []Row{intRow(3)}},
	}}
	if packed.Len() != 2 || packed.TotalRows() != 3 {
		t.Fatalf("packed counts: %d, %d", packed.Len(), packed.TotalRows())
	}
}

func TestRecordsRowsRoundTrip(t *testing.T) {
	s := testSchema()
	recs := []dataformat.Record{
		{Schema: s, Values: []dataformat.Value{
			dataformat.IntVal(0), dataformat.IntVal(94), dataformat.IntVal(0), dataformat.IntVal(74)}},
	}
	rows := RecordsToRows(recs)
	back, err := RowsToRecords(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[0].Values, recs[0].Values) {
		t.Fatalf("round trip mismatch")
	}
	// Arity mismatch must be rejected.
	if _, err := RowsToRecords(s, []Row{intRow(1, 2)}); err == nil {
		t.Fatal("short row accepted")
	}
}

// Property: row encode/decode round-trips arbitrary int rows.
func TestRowCodecProperty(t *testing.T) {
	f := func(vals []int64) bool {
		r := Row{Values: make([]dataformat.Value, len(vals))}
		for i, v := range vals {
			r.Values[i] = dataformat.IntVal(v)
		}
		got, err := DecodeRow(EncodeRow(r))
		if err != nil || len(got.Values) != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Values[i].Int != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: keyAsSortable is monotone for strings.
func TestKeyAsSortableMonotoneProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := dataformat.StrVal(a), dataformat.StrVal(b)
		if a <= b {
			return keyAsSortable(va) <= keyAsSortable(vb)
		}
		return keyAsSortable(va) >= keyAsSortable(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b dataformat.Value
		want int
	}{
		{dataformat.IntVal(1), dataformat.IntVal(2), -1},
		{dataformat.IntVal(2), dataformat.IntVal(2), 0},
		{dataformat.IntVal(3), dataformat.IntVal(2), 1},
		{dataformat.StrVal("a"), dataformat.StrVal("b"), -1},
		{dataformat.StrVal("b"), dataformat.StrVal("b"), 0},
		{dataformat.StrVal("10"), dataformat.IntVal(9), -1}, // mixed: string compare
	}
	for i, c := range cases {
		if got := compareValues(c.a, c.b); got != c.want {
			t.Errorf("case %d: compare = %d, want %d", i, got, c.want)
		}
	}
}

// codecEntry is one generated shuffle entry: a row, or a packed group.
type codecEntry struct {
	row   Row
	group *Group
}

func genValue(rng *rand.Rand) dataformat.Value {
	switch rng.Intn(4) {
	case 0:
		return dataformat.StrVal("")
	case 1:
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		return dataformat.StrVal(string(b))
	default:
		return dataformat.IntVal(rng.Int63() - rng.Int63())
	}
}

func genRow(rng *rand.Rand) Row {
	r := Row{Values: make([]dataformat.Value, rng.Intn(6))}
	for i := range r.Values {
		r.Values[i] = genValue(rng)
	}
	return r
}

func genEntries(rng *rand.Rand) []codecEntry {
	es := make([]codecEntry, rng.Intn(20))
	for i := range es {
		if rng.Intn(3) > 0 {
			es[i].row = genRow(rng)
			continue
		}
		g := &Group{Key: genValue(rng), Rows: make([]Row, rng.Intn(5))}
		for j := range g.Rows {
			g.Rows[j] = genRow(rng)
		}
		es[i].group = g
	}
	return es
}

// Property: ints, strings, empty strings, groups and mixed entries
// round-trip through one slab decoder, whose rows carry the spare
// capacity it was built with.
func TestRowDecoderRoundTripProperty(t *testing.T) {
	f := func(seed int64, spare uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		es := genEntries(rng)
		var want []Row
		var bufs [][]byte
		var buf []byte
		for _, e := range es {
			buf = AppendEntry(buf[:0], e.row, e.group)
			bufs = append(bufs, append([]byte(nil), buf...))
			if e.group != nil {
				want = append(want, e.group.Rows...)
			} else {
				want = append(want, e.row)
			}
		}
		sp := int(spare % 4)
		unpacked := NewRowDecoder(len(es), sp)
		tagged := NewRowDecoder(len(es), sp)
		var got []Row
		for i, b := range bufs {
			var err error
			if got, err = unpacked.AppendEntryRows(got, b); err != nil {
				t.Logf("entry %d: %v", i, err)
				return false
			}
			r, g, err := tagged.Entry(b)
			if err != nil || (g != nil) != (es[i].group != nil) {
				t.Logf("entry %d: group %v, %v", i, g != nil, err)
				return false
			}
			if g != nil {
				if !bytes.Equal(AppendEntry(nil, Row{}, g), b) {
					return false
				}
			} else if !bytes.Equal(AppendEntry(nil, r, nil), b) {
				return false
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(EncodeRow(got[i]), EncodeRow(want[i])) {
				t.Logf("row %d: %s vs %s", i, got[i], want[i])
				return false
			}
			if cap(got[i].Values)-len(got[i].Values) != sp && len(got[i].Values)+sp > 0 {
				t.Logf("row %d: spare capacity %d, want %d", i, cap(got[i].Values)-len(got[i].Values), sp)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Appending an attribute to one decoded row stays inside its own slab range:
// its neighbours keep their bytes, whether the append fits the spare
// capacity or overflows it.
func TestRowDecoderAppendDoesNotAlias(t *testing.T) {
	rows := []Row{
		intRow(1, 2),
		{Values: []dataformat.Value{dataformat.StrVal("a"), dataformat.IntVal(3)}},
		intRow(4, 5),
	}
	for spare := 0; spare <= 2; spare++ {
		dec := NewRowDecoder(len(rows), spare)
		got := make([]Row, len(rows))
		for i, r := range rows {
			var err error
			if got[i], err = dec.Row(EncodeRow(r)); err != nil {
				t.Fatal(err)
			}
		}
		before := make([][]byte, len(got))
		for i, r := range got {
			before[i] = EncodeRow(r)
		}
		for n := 1; n <= spare+1; n++ {
			got[1].Values = append(got[1].Values, dataformat.IntVal(-1))
			for _, i := range []int{0, 2} {
				if after := EncodeRow(got[i]); !bytes.Equal(after, before[i]) {
					t.Fatalf("spare %d, %d appends: row %d changed to %s", spare, n, i, got[i])
				}
			}
		}
	}
}

// An untrusted header claiming 2^32-1 values is rejected before any slab is
// sized from it: the decode allocates no more than its input's length.
func TestRowDecoderRejectsHugeCount(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	for i := 0; i < 100; i++ {
		buf = appendValue(buf, dataformat.IntVal(int64(i)))
	}
	group := appendValue(nil, dataformat.IntVal(7))
	group = append(group, buf...)
	if _, err := DecodeRow(buf); err == nil {
		t.Fatal("row claiming 2^32-1 values accepted")
	}
	if _, err := DecodeGroup(group); err == nil {
		t.Fatal("group claiming 2^32-1 rows accepted")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		DecodeRow(buf)
		DecodeGroup(group)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(buf)) {
		t.Fatalf("rejecting a huge count allocated %d bytes per decode pair, input is %d", per, len(buf))
	}
}

// The partition fingerprint is journaled and hard-gated on replay, so its
// value is pinned: this one was computed by the per-package FNV-64a loops
// FingerprintPartitions replaced.
func TestFingerprintPartitionsPinned(t *testing.T) {
	parts := [][]Row{
		{intRow(0, 94, -7), {Values: []dataformat.Value{
			dataformat.StrVal("vertex-12"), dataformat.StrVal(""), dataformat.IntVal(1 << 40)}}},
		nil,
		{{Values: []dataformat.Value{dataformat.StrVal("αβγ")}}, {Values: []dataformat.Value{}}},
	}
	if got, want := FingerprintPartitions(parts), uint64(0xb0baac42be30f1fe); got != want {
		t.Fatalf("FingerprintPartitions = %#x, want %#x", got, want)
	}
}
