package service

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
)

// The job journal is the daemon's write-ahead log: every admission decision
// and terminal job state is appended as one CRC32C-framed record BEFORE the
// client sees the response, so a kill -9'd daemon can reconstruct exactly
// which jobs it owes results for. Each record is one JSON Record in an
// internal/frame frame with the magic "PJL1". Replay walks frames from the
// start and stops at the first damaged one — a torn tail from a crash
// mid-append is expected, not fatal: the file is truncated back to the last
// good frame and appends resume there. Anything *behind* a valid frame is
// trusted because the CRC covers it; rot inside the prefix surfaces as a
// truncated replay, never as a silently corrupted job spec.
const (
	journalMagic = 0x314C4A50 // "PJL1" little-endian

	// maxRecordLen bounds one record's payload; a length field beyond it is
	// treated as frame damage rather than an allocation request.
	maxRecordLen = 1 << 20
)

// Record is one journal entry. Exactly one Type is set per record:
//
//   - "accepted": the job passed admission; Spec, ID, Key and the submit
//     sequence are authoritative. A job with an accepted record and no
//     terminal record is owed a result after recovery.
//   - "done": the job completed; Checksum is the partition fingerprint the
//     crash-recovery invariant is checked against.
//   - "failed": the job failed permanently (retries exhausted, deadline
//     exceeded); Error carries the reason.
//   - "applied": a delta job committed batch number Batch to its resident
//     incremental engine; Checksum is the engine fingerprint right after the
//     commit. Recovery replays applied records in journal order to rebuild
//     engines and resumes interrupted delta jobs after their last journaled
//     batch, so no batch is ever applied twice.
type Record struct {
	Type       string   `json:"type"`
	ID         string   `json:"id"`
	Key        string   `json:"key,omitempty"`
	Tenant     string   `json:"tenant,omitempty"`
	Spec       *JobSpec `json:"spec,omitempty"`
	Batch      int      `json:"batch,omitempty"`
	Checksum   uint64   `json:"checksum,omitempty"`
	MakespanNS int64    `json:"makespan_ns,omitempty"`
	Attempts   int      `json:"attempts,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// Journal is an append-only, CRC-framed job log. Appends are serialized by
// the server's lock; the Journal itself adds no locking.
type Journal struct {
	f    *os.File
	sync bool
	// appends counts records written since open (journal microbench +
	// /v1/stats surface it).
	appends int64
}

// OpenJournal opens (creating if absent) the journal at path, replays every
// intact record, truncates a torn tail, and returns the journal positioned
// for appends. With sync, every append is fsynced — durable against power
// loss, not just process death; without it an append survives kill -9 (the
// write has entered the page cache before Submit acknowledges) but not a
// host crash.
func OpenJournal(path string, sync bool) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("service: journal read: %w", err)
	}
	recs, good := replay(data)
	if good < int64(len(data)) {
		// Torn tail (crash mid-append) or trailing damage: cut it so the
		// next append starts on a frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("service: journal truncate: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("service: journal seek: %w", err)
	}
	return &Journal{f: f, sync: sync}, recs, nil
}

// replay decodes records from data, returning the intact prefix's records
// and its byte length.
func replay(data []byte) ([]Record, int64) {
	var recs []Record
	off := 0
	for {
		payload, size, err := frame.Next(data[off:], journalMagic, maxRecordLen)
		if err != nil {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += size
	}
	return recs, int64(off)
}

// Append writes one record. The frame goes out in a single write; a crash
// can tear it (the tail is truncated on the next open) but can never damage
// a previously acknowledged record.
func (j *Journal) Append(rec Record) error {
	buf, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("service: journal sync: %w", err)
		}
	}
	j.appends++
	return nil
}

// appendRecord appends rec's journal frame to dst.
func appendRecord(dst []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("service: journal encode: %w", err)
	}
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("service: journal record of %d bytes exceeds the %d limit", len(payload), maxRecordLen)
	}
	return frame.Append(dst, journalMagic, payload), nil
}

// Appends returns the number of records written since open.
func (j *Journal) Appends() int64 { return j.appends }

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
