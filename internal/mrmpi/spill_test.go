package mrmpi

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/keyval"
	"repro/internal/mpi"
	"repro/internal/spill"
	"repro/internal/vtime"
)

// spillProgram is a full verb pipeline with a skewed key distribution:
// map → aggregate → convert → reduce → sort → aggregate again (so the
// spilled-state scatter path runs too).
func spillProgram(mr *MapReduce) error {
	if err := mr.Map(func(emit Emitter) error {
		base := mr.Comm().Rank() * 3000
		for i := 0; i < 3000; i++ {
			k := []byte(fmt.Sprintf("key-%04d", (base+i*7)%257))
			v := []byte(fmt.Sprintf("value-%06d-%s", base+i, string(make([]byte, i%23))))
			emit(k, v)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := mr.Aggregate(HashPartitioner); err != nil {
		return err
	}
	mr.Convert()
	if err := mr.Reduce(func(g keyval.KMV, emit Emitter) error {
		total := 0
		for _, v := range g.Values {
			total += len(v)
			emit(g.Key, v)
		}
		emit(append([]byte("sum-"), g.Key...), []byte(fmt.Sprintf("%d", total)))
		return nil
	}); err != nil {
		return err
	}
	mr.SortLocal(func(a, b keyval.KV) bool { return bytes.Compare(a.Key, b.Key) < 0 })
	return mr.Aggregate(HashPartitioner)
}

type spillRunResult struct {
	pages    [][]byte
	makespan vtime.Duration
	wire     int64
	stats    spill.Stats
}

// runSpillProgram executes spillProgram on a 4-rank cluster; budget 0 is the
// in-memory reference, budget > 0 attaches a per-rank spill store.
func runSpillProgram(t *testing.T, budget int64) spillRunResult {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(4))
	base := t.TempDir()
	var res spillRunResult
	res.pages = make([][]byte, cl.Size())
	var mu sync.Mutex
	_, err := cl.Run(func(r *cluster.Rank) error {
		mr := New(mpi.NewComm(r))
		if budget > 0 {
			st, err := spill.Open(spill.Config{
				Dir:    filepath.Join(base, fmt.Sprintf("rank-%03d", r.ID())),
				Rank:   r.ID(),
				Node:   r.Node(),
				Charge: func(d vtime.Duration) { r.Clock().Advance(d) },
			})
			if err != nil {
				return err
			}
			defer func() {
				mu.Lock()
				res.stats.Add(st.Stats())
				mu.Unlock()
				st.Close()
			}()
			mr.SetSpill(st, budget)
		}
		if err := spillProgram(mr); err != nil {
			return err
		}
		final, err := mr.Materialize()
		if err != nil {
			return err
		}
		mu.Lock()
		res.pages[r.ID()] = final.AppendEncoded(nil)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res.makespan = cl.Makespan()
	res.wire = cl.Stats().BytesOnWire
	return res
}

// TestSpillIdentity pins the out-of-core contract: a run constrained to a
// tiny memory budget produces bit-identical partitions, the same makespan
// and the same shuffle traffic as the unconstrained in-memory run — and it
// really did go through disk.
func TestSpillIdentity(t *testing.T) {
	ref := runSpillProgram(t, 0)
	ooc := runSpillProgram(t, 8<<10)
	if ooc.stats.SpillPages == 0 || ooc.stats.RestorePages == 0 {
		t.Fatalf("budgeted run never touched disk: %+v", ooc.stats)
	}
	for rank := range ref.pages {
		if !bytes.Equal(ref.pages[rank], ooc.pages[rank]) {
			t.Fatalf("rank %d partition diverged under the budget (%d vs %d bytes)",
				rank, len(ref.pages[rank]), len(ooc.pages[rank]))
		}
	}
	if ref.makespan != ooc.makespan {
		t.Fatalf("makespan diverged: in-memory %v, out-of-core %v", ref.makespan, ooc.makespan)
	}
	if ref.wire != ooc.wire {
		t.Fatalf("shuffle bytes diverged: in-memory %d, out-of-core %d", ref.wire, ooc.wire)
	}
}

// TestSpillCheckpointRestore pins the checkpoint path over spilled state: a
// snapshot of an out-of-core KV set streams the runs into a page identical
// to the in-memory snapshot, and a restore into a budgeted MapReduce goes
// back under the budget without changing the logical pairs.
func TestSpillCheckpointRestore(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(1))
	base := t.TempDir()
	_, err := cl.Run(func(r *cluster.Rank) error {
		// Every rank claims its own directories: a spill store owns its Dir.
		open := func(sub string) *spill.Store {
			dir := filepath.Join(base, fmt.Sprintf("%s-%03d", sub, r.ID()))
			st, err := spill.Open(spill.Config{Dir: dir, Rank: r.ID()})
			if err != nil {
				t.Errorf("Open: %v", err)
			}
			return st
		}
		load := func(mr *MapReduce) error {
			return mr.Map(func(emit Emitter) error {
				for i := 0; i < 2000; i++ {
					emit([]byte(fmt.Sprintf("k-%05d", i%101)), []byte(fmt.Sprintf("v-%07d", i)))
				}
				return nil
			})
		}
		plain := New(mpi.NewComm(r))
		if err := load(plain); err != nil {
			return err
		}
		budgeted := New(mpi.NewComm(r))
		st := open("snap")
		defer st.Close()
		budgeted.SetSpill(st, 8<<10)
		if err := load(budgeted); err != nil {
			return err
		}
		if !budgeted.Spilled() {
			t.Errorf("2000 pairs under an 8KiB budget did not spill")
		}
		page, err := budgeted.SnapshotPage()
		if err != nil {
			return err
		}
		if want := plain.Snapshot(); !bytes.Equal(page, want) {
			t.Errorf("spilled snapshot differs from in-memory snapshot (%d vs %d bytes)", len(page), len(want))
		}
		restored := New(mpi.NewComm(r))
		st2 := open("restore")
		defer st2.Close()
		restored.SetSpill(st2, 8<<10)
		if err := restored.Restore(page); err != nil {
			return err
		}
		if !restored.Spilled() {
			t.Errorf("restore did not re-enforce the budget")
		}
		if restored.Pairs() != plain.KV().Len() {
			t.Errorf("restored %d pairs, want %d", restored.Pairs(), plain.KV().Len())
		}
		final, err := restored.Materialize()
		if err != nil {
			return err
		}
		for i := 0; i < final.Len(); i++ {
			w, g := plain.KV().At(i), final.At(i)
			if !bytes.Equal(w.Key, g.Key) || !bytes.Equal(w.Value, g.Value) {
				t.Errorf("pair %d diverged after restore", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpillDiskFaultSurfacesTyped pins the last-resort behaviour: when every
// replica of a spilled frame rots, the verb that needs it back reports a
// typed spill.IntegrityError instead of garbage (or a panic).
func TestSpillDiskFaultSurfacesTyped(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(1))
	base := t.TempDir()
	_, err := cl.Run(func(r *cluster.Rank) error {
		st, err := spill.Open(spill.Config{
			Dir:  filepath.Join(base, fmt.Sprintf("rot-%03d", r.ID())),
			Rank: r.ID(),
			Plan: cl.FaultPlan(),
		})
		if err != nil {
			return err
		}
		defer st.Close()
		mr := New(mpi.NewComm(r))
		mr.SetSpill(st, 4<<10)
		return mr.Map(func(emit Emitter) error {
			for i := 0; i < 2000; i++ {
				emit([]byte(fmt.Sprintf("k-%05d", i)), []byte(fmt.Sprintf("v-%07d", i)))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Second run with total rot: the map spills fine (writes are clean), the
	// materialize that reads the runs back must fail typed.
	cl2 := cluster.New(cluster.DefaultConfig(1))
	cl2.SetFaultPlan(&faults.Plan{Seed: 5, Disk: faults.Disk{RotProb: 1}})
	_, err = cl2.Run(func(r *cluster.Rank) error {
		st, err := spill.Open(spill.Config{
			Dir:  filepath.Join(base, fmt.Sprintf("rot2-%03d", r.ID())),
			Rank: r.ID(),
			Plan: cl2.FaultPlan(),
		})
		if err != nil {
			return err
		}
		defer st.Close()
		mr := New(mpi.NewComm(r))
		mr.SetSpill(st, 4<<10)
		if err := mr.Map(func(emit Emitter) error {
			for i := 0; i < 2000; i++ {
				emit([]byte(fmt.Sprintf("k-%05d", i)), []byte(fmt.Sprintf("v-%07d", i)))
			}
			return nil
		}); err != nil {
			return err
		}
		if !mr.Spilled() {
			t.Error("map under budget did not spill")
			return nil
		}
		_, merr := mr.Materialize()
		var ie *spill.IntegrityError
		if !errors.As(merr, &ie) {
			t.Errorf("want *spill.IntegrityError from Materialize, got %v", merr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
