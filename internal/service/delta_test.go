package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// deltaSpec is a small, fast delta job over the shared test dataset.
func deltaSpec() JobSpec {
	return JobSpec{
		Kind:     "delta",
		Workflow: "blast_partition",
		Dataset:  DatasetSpec{Kind: "blast", Profile: "env_nr", Scale: 0.001, Seed: 11},
		Args:     map[string]string{"num_partitions": "8"},
		Delta:    &DeltaSpec{Batches: 3, AppendFrac: 0.02, DeleteFrac: 0.01, Seed: 7},
	}
}

// engineFor fetches the resident engine a finished incremental job mutated.
func engineFor(t *testing.T, s *Server, spec JobSpec) *deltaEngine {
	t.Helper()
	key, err := engineKey(&spec)
	if err != nil {
		t.Fatal(err)
	}
	s.engMu.Lock()
	de := s.engines[key]
	s.engMu.Unlock()
	if de == nil || de.eng == nil {
		t.Fatalf("no resident engine for %s", key)
	}
	return de
}

// TestDeltaJobMatchesFromScratch pins the service-level identity invariant:
// a delta job's final checksum equals a from-scratch run of the same plan
// over the engine's final resident rows.
func TestDeltaJobMatchesFromScratch(t *testing.T) {
	s := newTestServer(t, Config{Nodes: 2, Workers: 1})
	j := submitOK(t, s, deltaSpec())
	waitDone(t, j)
	if j.State != StateDone {
		t.Fatalf("state %s (err %q)", j.State, j.Error)
	}
	if j.MovedRows <= 0 {
		t.Errorf("delta job moved %d rows, want > 0", j.MovedRows)
	}
	de := engineFor(t, s, deltaSpec())
	if got := core.FingerprintPartitions(de.eng.Partitions()); got != j.Checksum {
		t.Fatalf("job checksum %016x != engine %016x", j.Checksum, got)
	}
	// From-scratch oracle over the engine's final resident rows.
	spec := deltaSpec()
	rt, err := s.rts.resolve(&spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.DefaultConfig(2))
	rows := de.eng.Rows()
	res, err := core.Execute(cl, rt.plan, core.Input{LocalRows: spreadRows(rows, cl.Size())})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.FingerprintPartitions(res.Partitions); got != j.Checksum {
		t.Fatalf("delta partitions diverge from scratch: %016x != %016x", j.Checksum, got)
	}
}

// TestDeltaJobResumesFromJournal replays a truncated journal — accepted plus
// the first two applied records of a finished three-batch job — and requires
// the recovered server to resume at batch 2 and land on the original
// checksum: batches already journaled are never re-applied.
func TestDeltaJobResumesFromJournal(t *testing.T) {
	dir1 := t.TempDir()
	s1 := newTestServer(t, Config{Nodes: 2, Workers: 1, DataDir: dir1})
	spec := deltaSpec()
	spec.IdempotencyKey = "delta-once"
	j1 := submitOK(t, s1, spec)
	waitDone(t, j1)
	if j1.State != StateDone {
		t.Fatalf("state %s (err %q)", j1.State, j1.Error)
	}
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir1, "journal.pjl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := replay(data)
	var truncated []Record
	applied := 0
	for _, rec := range recs {
		switch rec.Type {
		case "accepted":
			truncated = append(truncated, rec)
		case "applied":
			if applied < 2 {
				truncated = append(truncated, rec)
				applied++
			}
		}
	}
	if applied != 2 {
		t.Fatalf("journal holds %d applied records, want >= 2", applied)
	}
	dir2 := t.TempDir()
	jr, _, err := OpenJournal(filepath.Join(dir2, "journal.pjl"), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range truncated {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Nodes: 2, Workers: 1, DataDir: dir2})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("recovered server lost the job")
	}
	if !j2.Recovered {
		t.Error("resumed job not marked recovered")
	}
	waitDone(t, j2)
	if j2.State != StateDone {
		t.Fatalf("resumed state %s (err %q)", j2.State, j2.Error)
	}
	if j2.Checksum != j1.Checksum {
		t.Fatalf("resumed checksum %016x != original %016x", j2.Checksum, j1.Checksum)
	}
	if j2.applied != spec.Delta.Batches {
		t.Errorf("resumed job applied %d batches, want %d", j2.applied, spec.Delta.Batches)
	}
	// The idempotency key survived recovery: a resubmission dedupes.
	if j3, aerr := s2.Submit(spec); aerr != nil || j3 != j2 {
		t.Errorf("resubmit after recovery did not dedupe (err %v)", aerr)
	}
}

// TestDeltaJobCrashRecovers crash-stops the daemon at an arbitrary point of
// a delta job's life and requires the restarted daemon to finish it with the
// checksum an untroubled daemon produces.
func TestDeltaJobCrashRecovers(t *testing.T) {
	ref := newTestServer(t, Config{Nodes: 2, Workers: 1})
	spec := deltaSpec()
	spec.Delta.Batches = 4
	jr := submitOK(t, ref, spec)
	waitDone(t, jr)
	if jr.State != StateDone {
		t.Fatalf("reference state %s (err %q)", jr.State, jr.Error)
	}

	dir := t.TempDir()
	s1, err := New(Config{Nodes: 2, Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	j1 := submitOK(t, s1, spec)
	time.Sleep(10 * time.Millisecond)
	s1.Crash()

	s2 := newTestServer(t, Config{Nodes: 2, Workers: 1, DataDir: dir})
	j2 := s2.Job(j1.ID)
	if j2 == nil {
		t.Fatal("crashed job lost")
	}
	waitDone(t, j2)
	if j2.State != StateDone {
		t.Fatalf("recovered state %s (err %q)", j2.State, j2.Error)
	}
	if j2.Checksum != jr.Checksum {
		t.Fatalf("recovered checksum %016x != reference %016x", j2.Checksum, jr.Checksum)
	}
}

// TestResizeJobs drives repartition and coalesce kinds through the service:
// repartition reshapes to an arbitrary count, coalesce folds a divisor count
// with zero wire traffic.
func TestResizeJobs(t *testing.T) {
	s := newTestServer(t, Config{Nodes: 2, Workers: 1})
	base := JobSpec{
		Workflow: "blast_partition_block",
		Dataset:  DatasetSpec{Kind: "blast", Profile: "env_nr", Scale: 0.001, Seed: 11},
		Args:     map[string]string{"num_partitions": "12"},
	}

	rep := base
	rep.Kind = "repartition"
	rep.NewPartitions = 9
	j := submitOK(t, s, rep)
	waitDone(t, j)
	if j.State != StateDone {
		t.Fatalf("repartition state %s (err %q)", j.State, j.Error)
	}
	de := engineFor(t, s, base)
	if de.eng.NumPartitions() != 9 {
		t.Fatalf("engine at %d partitions, want 9", de.eng.NumPartitions())
	}

	co := base
	co.Kind = "coalesce"
	co.NewPartitions = 3
	j = submitOK(t, s, co)
	waitDone(t, j)
	if j.State != StateDone {
		t.Fatalf("coalesce state %s (err %q)", j.State, j.Error)
	}
	if de.eng.NumPartitions() != 3 {
		t.Fatalf("engine at %d partitions, want 3", de.eng.NumPartitions())
	}
	if j.MovedRows != 0 {
		t.Errorf("coalesce moved %d rows over the wire, want 0", j.MovedRows)
	}
	if got := core.FingerprintPartitions(de.eng.Partitions()); got != j.Checksum {
		t.Fatalf("coalesce checksum %016x != engine %016x", j.Checksum, got)
	}
}

// TestDeltaSpecValidation rejects malformed incremental specs with 400s.
func TestDeltaSpecValidation(t *testing.T) {
	s := newTestServer(t, Config{Nodes: 2, Workers: 1})
	cases := []struct {
		name string
		mod  func(*JobSpec)
		want string
	}{
		{"missing delta spec", func(j *JobSpec) { j.Delta = nil }, "need a delta spec"},
		{"zero batches", func(j *JobSpec) { j.Delta.Batches = 0 }, "out of range"},
		{"excess batches", func(j *JobSpec) { j.Delta.Batches = 65 }, "out of range"},
		{"bad append frac", func(j *JobSpec) { j.Delta.AppendFrac = 1.5 }, "append_frac"},
		{"bad delete frac", func(j *JobSpec) { j.Delta.DeleteFrac = -0.1 }, "delete_frac"},
		{"empty delta", func(j *JobSpec) { j.Delta.AppendFrac, j.Delta.DeleteFrac = 0, 0 }, "append_frac or delete_frac"},
		{"delta with resize", func(j *JobSpec) { j.NewPartitions = 4 }, "no new_partitions"},
		{"unknown kind", func(j *JobSpec) { j.Kind = "mutate" }, "unknown job kind"},
		{"partition with delta", func(j *JobSpec) { j.Kind = "" }, "takes no delta spec"},
		{"repartition without target", func(j *JobSpec) { j.Kind = "repartition"; j.Delta = nil }, "new_partitions >= 1"},
	}
	for _, tc := range cases {
		spec := deltaSpec()
		tc.mod(&spec)
		_, aerr := s.Submit(spec)
		if aerr == nil || aerr.Status != 400 {
			t.Errorf("%s: want 400, got %+v", tc.name, aerr)
			continue
		}
		if !strings.Contains(aerr.Reason, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, aerr.Reason, tc.want)
		}
	}
}
