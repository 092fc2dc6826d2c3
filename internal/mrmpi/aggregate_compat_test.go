package mrmpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// kvSignature flattens per-rank snapshots into comparable strings.
func kvSignature(snaps [][]string) string {
	out := ""
	for rank, snap := range snaps {
		out += fmt.Sprintf("rank%d:", rank)
		for _, s := range snap {
			out += s + ";"
		}
		out += "\n"
	}
	return out
}

func snapshotStrings(t *testing.T, nodes int, body func(mr *MapReduce) error) [][]string {
	t.Helper()
	snaps := runMR(t, nodes, body)
	out := make([][]string, len(snaps))
	for rank, snap := range snaps {
		for _, kv := range snap {
			out[rank] = append(out[rank], string(kv.Key)+"="+string(kv.Value))
		}
	}
	return out
}

// TestAggregateCompatibleSkipsWhenPlaced pins the verify-then-skip fast
// path: when every pair already sits on its hash-home rank, the second
// aggregate reports the skip and leaves per-rank contents exactly as a full
// aggregate would.
func TestAggregateCompatibleSkipsWhenPlaced(t *testing.T) {
	emitKeys := func(mr *MapReduce) error {
		return mr.Map(func(emit Emitter) error {
			for i := 0; i < 16; i++ {
				emit([]byte(fmt.Sprintf("key-%d", i)), []byte{byte(mr.Comm().Rank())})
			}
			return nil
		})
	}
	full := snapshotStrings(t, 2, func(mr *MapReduce) error {
		if err := emitKeys(mr); err != nil {
			return err
		}
		if err := mr.Aggregate(HashPartitioner); err != nil {
			return err
		}
		return mr.Aggregate(HashPartitioner)
	})
	// One slot per rank: every rank goroutine records its own skip.
	skipped := make([]bool, cluster.DefaultConfig(2).Size())
	compat := snapshotStrings(t, 2, func(mr *MapReduce) error {
		if err := emitKeys(mr); err != nil {
			return err
		}
		if err := mr.Aggregate(HashPartitioner); err != nil {
			return err
		}
		skip, err := mr.AggregateCompatible(HashPartitioner)
		if err != nil {
			return err
		}
		if !skip {
			return fmt.Errorf("placement is compatible after a hash aggregate; skip expected")
		}
		skipped[mr.Comm().Rank()] = true
		return nil
	})
	if len(compat) != len(skipped) {
		t.Fatalf("%d ranks ran, want %d", len(compat), len(skipped))
	}
	for rank, ok := range skipped {
		if !ok {
			t.Errorf("rank %d never took the skip path", rank)
		}
	}
	if kvSignature(full) != kvSignature(compat) {
		t.Fatalf("skip path diverged from full aggregate:\nfull:\n%s\ncompat:\n%s",
			kvSignature(full), kvSignature(compat))
	}
}

// TestAggregateCompatibleFallsBackWhenMisplaced pins the safety net: a wrong
// compatibility hint (pairs not on their hash homes) must fall back to the
// full exchange and land every pair exactly where a plain Aggregate would.
func TestAggregateCompatibleFallsBackWhenMisplaced(t *testing.T) {
	emitKeys := func(mr *MapReduce) error {
		// Every rank emits every key, so most pairs are misplaced.
		return mr.Map(func(emit Emitter) error {
			for i := 0; i < 16; i++ {
				emit([]byte(fmt.Sprintf("key-%d", i)), []byte{byte(mr.Comm().Rank())})
			}
			return nil
		})
	}
	full := snapshotStrings(t, 2, func(mr *MapReduce) error {
		if err := emitKeys(mr); err != nil {
			return err
		}
		return mr.Aggregate(HashPartitioner)
	})
	compat := snapshotStrings(t, 2, func(mr *MapReduce) error {
		if err := emitKeys(mr); err != nil {
			return err
		}
		skipped, err := mr.AggregateCompatible(HashPartitioner)
		if err != nil {
			return err
		}
		if skipped {
			return fmt.Errorf("misplaced pairs must not be skipped")
		}
		return nil
	})
	if kvSignature(full) != kvSignature(compat) {
		t.Fatalf("fallback diverged from full aggregate:\nfull:\n%s\ncompat:\n%s",
			kvSignature(full), kvSignature(compat))
	}
}
