package dataformat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
)

// Split is one contiguous chunk of an input file, assigned to one mapper —
// the getSplits analogue of Hadoop's InputFormat (§III-A).
type Split struct {
	Path   string
	Offset int64
	Length int64
	// Index is the split's ordinal among all splits of the file.
	Index int
}

// Splits partitions the file described by schema into n splits on record
// boundaries. Binary formats split exactly; text formats split at the line
// boundary at-or-after the nominal cut (standard MapReduce semantics).
// Neither path reads the whole file: binary splitting needs only the file
// size, text splitting scans a small window around each nominal cut.
func Splits(schema *Schema, path string, n int) ([]Split, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataformat: split count %d must be positive", n)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dataformat: %w", err)
	}
	if schema.Binary {
		return binarySplits(schema, path, fi.Size(), n)
	}
	return textSplitsFile(path, fi.Size(), n)
}

func binarySplits(schema *Schema, path string, fileLen int64, n int) ([]Split, error) {
	rec, err := schema.RecordSize()
	if err != nil {
		return nil, err
	}
	body := fileLen - schema.StartPosition
	if body < 0 {
		return nil, fmt.Errorf("dataformat: file %s shorter (%d) than start position %d", path, fileLen, schema.StartPosition)
	}
	if body%int64(rec) != 0 {
		return nil, fmt.Errorf("dataformat: file %s body %d bytes is not a multiple of record size %d", path, body, rec)
	}
	records := body / int64(rec)
	splits := make([]Split, 0, n)
	for i := 0; i < n; i++ {
		lo := records * int64(i) / int64(n)
		hi := records * int64(i+1) / int64(n)
		splits = append(splits, Split{
			Path:   path,
			Offset: schema.StartPosition + lo*int64(rec),
			Length: (hi - lo) * int64(rec),
			Index:  i,
		})
	}
	return splits, nil
}

func textSplitsFile(path string, fileLen int64, n int) ([]Split, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataformat: %w", err)
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	cuts := make([]int64, 0, n+1)
	cuts = append(cuts, 0)
	for i := 1; i < n; i++ {
		nominal := fileLen * int64(i) / int64(n)
		if nominal < cuts[len(cuts)-1] {
			nominal = cuts[len(cuts)-1]
		}
		// Advance to the byte after the next newline.
		j, err := nextLineStart(f, buf, nominal, fileLen)
		if err != nil {
			return nil, fmt.Errorf("dataformat: splitting %s: %w", path, err)
		}
		cuts = append(cuts, j)
	}
	cuts = append(cuts, fileLen)
	splits := make([]Split, 0, n)
	for i := 0; i < n; i++ {
		splits = append(splits, Split{Path: path, Offset: cuts[i], Length: cuts[i+1] - cuts[i], Index: i})
	}
	return splits, nil
}

// nextLineStart returns the offset of the byte after the first newline at or
// after `from`, scanning forward one buffer at a time (fileLen when the tail
// holds no newline).
func nextLineStart(f *os.File, buf []byte, from, fileLen int64) (int64, error) {
	for off := from; off < fileLen; {
		m := int64(len(buf))
		if off+m > fileLen {
			m = fileLen - off
		}
		k, err := f.ReadAt(buf[:m], off)
		if int64(k) < m && err != nil {
			return 0, err
		}
		if idx := bytes.IndexByte(buf[:k], '\n'); idx >= 0 {
			return off + int64(idx) + 1, nil
		}
		off += int64(k)
	}
	return fileLen, nil
}

// ReadSplit extracts the records of one split — the getRecordReader
// analogue.
func ReadSplit(schema *Schema, sp Split) ([]Record, error) {
	var out []Record
	if err := StreamSplit(schema, sp, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// streamChunk is the refill size for StreamSplit's carry buffer. A variable
// so tests can shrink it to force record-spans-chunk paths.
var streamChunk = 256 << 10

// StreamSplit decodes one split record by record, holding only a bounded
// buffer in memory — ingest never materializes the whole split. fn sees each
// record in file order; a non-nil error from fn aborts the scan.
func StreamSplit(schema *Schema, sp Split, fn func(Record) error) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	f, err := os.Open(sp.Path)
	if err != nil {
		return fmt.Errorf("dataformat: %w", err)
	}
	defer f.Close()

	chunk := int64(streamChunk)
	if schema.Binary {
		// Round the chunk down to whole records so every buffer decodes
		// cleanly on its own.
		rec, err := schema.RecordSize()
		if err != nil {
			return err
		}
		if sp.Length%int64(rec) != 0 {
			return fmt.Errorf("dataformat: %d bytes is not a multiple of record size %d", sp.Length, rec)
		}
		if chunk < int64(rec) {
			chunk = int64(rec)
		}
		chunk -= chunk % int64(rec)
		buf := make([]byte, chunk)
		for off := int64(0); off < sp.Length; {
			m := chunk
			if off+m > sp.Length {
				m = sp.Length - off
			}
			if _, err := f.ReadAt(buf[:m], sp.Offset+off); err != nil {
				return fmt.Errorf("dataformat: reading split %d of %s: %w", sp.Index, sp.Path, err)
			}
			recs, err := DecodeBinary(schema, buf[:m])
			if err != nil {
				return err
			}
			for _, r := range recs {
				if err := fn(r); err != nil {
					return err
				}
			}
			off += m
		}
		return nil
	}

	// Text: keep a carry buffer of bytes that did not yet form a complete
	// record, refill it a chunk at a time.
	var buf []byte
	read := int64(0) // bytes of the split consumed from the file
	recIdx := 0
	for {
		atEOF := read >= sp.Length
		if !atEOF {
			m := chunk
			if read+m > sp.Length {
				m = sp.Length - read
			}
			start := len(buf)
			buf = append(buf, make([]byte, m)...)
			if _, err := f.ReadAt(buf[start:], sp.Offset+read); err != nil {
				return fmt.Errorf("dataformat: reading split %d of %s: %w", sp.Index, sp.Path, err)
			}
			read += m
			atEOF = read >= sp.Length
		}
		pos := 0
		for pos < len(buf) {
			rec, consumed, ok, err := decodeTextRecord(schema, buf[pos:], atEOF, recIdx)
			if err != nil {
				return err
			}
			if !ok {
				break // incomplete record: need more bytes
			}
			pos += consumed
			recIdx++
			if err := fn(rec); err != nil {
				return err
			}
		}
		buf = append(buf[:0], buf[pos:]...)
		if atEOF {
			if len(buf) > 0 {
				// decodeTextRecord with atEOF=true either consumes the tail or
				// errors, so a leftover here is a record that made no progress.
				return fmt.Errorf("dataformat: record %d: truncated record at end of split", recIdx)
			}
			return nil
		}
	}
}

// ReadAll reads the whole file as one split.
func ReadAll(schema *Schema, path string) ([]Record, error) {
	sps, err := Splits(schema, path, 1)
	if err != nil {
		return nil, err
	}
	return ReadSplit(schema, sps[0])
}

// DecodeBinary parses fixed-width binary records (no header; the caller has
// already skipped StartPosition).
func DecodeBinary(schema *Schema, buf []byte) ([]Record, error) {
	rec, err := schema.RecordSize()
	if err != nil {
		return nil, err
	}
	if len(buf)%rec != 0 {
		return nil, fmt.Errorf("dataformat: %d bytes is not a multiple of record size %d", len(buf), rec)
	}
	n := len(buf) / rec
	w := len(schema.Fields)
	// Every record's values are carved from one slab, each capped at its
	// own fields so an append never reaches a neighbour.
	slab := make([]Value, n*w)
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Record{Schema: schema, Values: slab[i*w : (i+1)*w : (i+1)*w]}
		p := buf[i*rec:]
		for j, f := range schema.Fields {
			switch f.Type {
			case Integer:
				r.Values[j] = IntVal(int64(int32(binary.LittleEndian.Uint32(p))))
				p = p[4:]
			case Long:
				r.Values[j] = IntVal(int64(binary.LittleEndian.Uint64(p)))
				p = p[8:]
			default:
				return nil, fmt.Errorf("dataformat: type %v in binary schema", f.Type)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// DecodeText parses delimiter-separated text records. Each field is
// terminated by its configured delimiter; the record ends with the last
// field's delimiter (typically "\n"). A trailing incomplete record is an
// error; an empty buffer yields no records.
func DecodeText(schema *Schema, buf []byte) ([]Record, error) {
	var out []Record
	pos := 0
	for pos < len(buf) {
		rec, consumed, _, err := decodeTextRecord(schema, buf[pos:], true, len(out))
		if err != nil {
			return nil, err
		}
		pos += consumed
		out = append(out, rec)
	}
	return out, nil
}

// decodeTextRecord parses one record from the front of buf. With atEOF false
// a missing delimiter means the record continues past buf — it returns
// ok=false so the caller can refill; with atEOF true only the final field's
// terminal newline may be absent, anything else is an error. recIdx is used
// in error messages only. A complete record becomes one string; its fields
// are substrings of it.
func decodeTextRecord(schema *Schema, buf []byte, atEOF bool, recIdx int) (Record, int, bool, error) {
	// First pass: find where the record ends, allocating nothing.
	end := 0
	for j, f := range schema.Fields {
		d := f.Delimiter
		idx := bytes.Index(buf[end:], []byte(d))
		if idx < 0 {
			if !atEOF {
				return Record{}, 0, false, nil
			}
			// Tolerate a final record missing its terminal newline.
			if j == len(schema.Fields)-1 && d == "\n" {
				idx = len(buf) - end
			} else {
				return Record{}, 0, false, fmt.Errorf("dataformat: record %d field %q: missing delimiter %q", recIdx, f.Name, d)
			}
		}
		end = min(end+idx+len(d), len(buf))
	}
	// Second pass: the same fields, now as substrings of the record line.
	line := string(buf[:end])
	r := Record{Schema: schema, Values: make([]Value, len(schema.Fields))}
	pos := 0
	for j, f := range schema.Fields {
		d := f.Delimiter
		idx := strings.Index(line[pos:], d)
		if idx < 0 {
			idx = len(line) - pos // the final field at EOF, as above
		}
		raw := line[pos : pos+idx]
		pos = min(pos+idx+len(d), len(line))
		switch f.Type {
		case String:
			r.Values[j] = StrVal(raw)
		case Integer, Long:
			v, err := parseInt(raw)
			if err != nil {
				return Record{}, 0, false, fmt.Errorf("dataformat: record %d field %q: %w", recIdx, f.Name, err)
			}
			r.Values[j] = IntVal(v)
		}
	}
	return r, end, true, nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	var n int64
	var neg bool
	if s == "" {
		return 0, fmt.Errorf("empty numeric field")
	}
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, fmt.Errorf("invalid numeric field %q", s)
		}
	}
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid numeric field %q", s)
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}
