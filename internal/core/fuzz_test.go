package core

import (
	"bytes"
	"testing"

	"repro/internal/dataformat"
)

// Fuzz targets harden the wire codecs against corrupt shuffle payloads: a
// malformed buffer must produce an error, never a panic, and valid encodes
// must round-trip.

func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRow(Row{Values: []dataformat.Value{dataformat.IntVal(42)}}))
	f.Add(EncodeRow(Row{Values: []dataformat.Value{dataformat.StrVal("vertex"), dataformat.IntVal(-1)}}))
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRow(data)
		if err != nil {
			return
		}
		// The encoding is canonical: every accepted input re-encodes to
		// exactly itself, and re-decodes to the same rendering.
		if enc := EncodeRow(row); !bytes.Equal(enc, data) {
			t.Fatalf("re-encode changed the bytes: %x vs %x", enc, data)
		}
		back, err := DecodeRow(EncodeRow(row))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.String() != row.String() {
			t.Fatalf("round trip changed row: %s vs %s", back, row)
		}
	})
}

func FuzzDecodeGroup(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeGroup(Group{Key: dataformat.IntVal(1), Rows: []Row{
		{Values: []dataformat.Value{dataformat.IntVal(2)}},
	}}))
	f.Add(EncodeGroup(Group{Key: dataformat.StrVal("v"), Rows: []Row{
		{Values: []dataformat.Value{dataformat.StrVal("v"), dataformat.StrVal("")}},
		{Values: []dataformat.Value{}},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGroup(data)
		if err != nil {
			return
		}
		if enc := EncodeGroup(g); !bytes.Equal(enc, data) {
			t.Fatalf("re-encode changed the bytes: %x vs %x", enc, data)
		}
		if _, err := DecodeGroup(EncodeGroup(g)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func FuzzParseSplitPolicy(f *testing.F) {
	f.Add("{>=,200},{<,200}")
	f.Add("{==,0}")
	f.Add("garbage")
	f.Add("{{{,}}}")
	f.Fuzz(func(t *testing.T, s string) {
		conds, err := ParseSplitPolicy(s)
		if err != nil {
			return
		}
		if len(conds) == 0 {
			t.Fatal("successful parse returned no conditions")
		}
		for _, c := range conds {
			// Every parsed condition must evaluate without panicking and
			// re-parse from its own rendering.
			_ = c.Eval(0)
			if _, err := ParseSplitPolicy(c.String()); err != nil {
				t.Fatalf("rendered condition %q does not re-parse: %v", c, err)
			}
		}
	})
}
