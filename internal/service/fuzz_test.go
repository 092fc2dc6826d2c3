package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// The journal's frame geometry, as the torn-tail tests address it.
const (
	journalHeaderLen = frame.HeaderSize
	journalCRCLen    = frame.TrailerSize
)

// FuzzJournalReplay feeds arbitrary bytes to journal replay. Replay must
// never panic, and the intact prefix it reports must be exactly the frames
// it decoded: re-framing their payloads reproduces data[:good] byte for
// byte, and each returned record is its frame's payload. Records themselves
// are checked by round trip — re-encoding them through the journal writer
// replays to the same records — because replay accepts any JSON spelling of
// a record, not only the canonical one Append writes.
func FuzzJournalReplay(f *testing.F) {
	recs := []Record{
		{Type: "accepted", ID: "j1", Key: "k1", Tenant: "a", Spec: &JobSpec{
			Workflow: "blast_partition",
			Dataset:  DatasetSpec{Kind: "blast", Profile: "env_nr", Scale: 0.001, Seed: 3},
			Args:     map[string]string{"num_partitions": "4"},
		}},
		{Type: "applied", ID: "j1", Batch: 2, Checksum: 0xDEADBEEF},
		{Type: "done", ID: "j1", Checksum: 42, MakespanNS: 1e6, Attempts: 1},
		{Type: "failed", ID: "j2", Error: "deadline exceeded"},
	}
	var valid []byte
	for _, rec := range recs {
		var err error
		if valid, err = appendRecord(valid, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:5])            // torn header
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10 // rot mid-journal
	f.Add(flipped)
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFF0) // damaged length
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, good := replay(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("intact prefix %d outside [0,%d]", good, len(data))
		}
		var reframed []byte
		frames := 0
		for off := 0; off < int(good); frames++ {
			payload, size, err := frame.Next(data[off:good], journalMagic, maxRecordLen)
			if err != nil {
				t.Fatalf("frame %d inside the intact prefix: %v", frames, err)
			}
			if frames >= len(got) {
				t.Fatalf("intact prefix holds more than the %d records returned", len(got))
			}
			var rec Record
			if err := json.Unmarshal(payload, &rec); err != nil || !reflect.DeepEqual(rec, got[frames]) {
				t.Fatalf("record %d is not its frame's payload: %+v vs %q", frames, got[frames], payload)
			}
			reframed = frame.Append(reframed, journalMagic, payload)
			off += size
		}
		if frames != len(got) {
			t.Fatalf("intact prefix holds %d frames for %d records", frames, len(got))
		}
		if !bytes.Equal(reframed, data[:good]) {
			t.Fatalf("re-framed prefix differs from data[:%d]", good)
		}

		var again []byte
		for _, rec := range got {
			var err error
			if again, err = appendRecord(again, rec); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		back, n := replay(again)
		if n != int64(len(again)) || !reflect.DeepEqual(back, got) {
			t.Fatalf("re-encoded records do not replay to themselves")
		}
	})
}
