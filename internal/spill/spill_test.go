package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/keyval"
	"repro/internal/vtime"
)

func testList(n int) *keyval.List {
	l := keyval.NewList(n)
	for i := 0; i < n; i++ {
		l.Add([]byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("value-%08d", i*7)))
	}
	return l
}

func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join(t.TempDir(), "spill")
	}
	if cfg.FrameBytes == 0 {
		cfg.FrameBytes = 512 // small frames so every test exercises multi-frame runs
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func readBack(t *testing.T, s *Store, r *Run) *keyval.List {
	t.Helper()
	out := keyval.NewList(r.Pairs())
	if err := s.ReadRun(r, func(l *keyval.List) error {
		out.AppendList(l)
		return nil
	}); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	return out
}

func assertSame(t *testing.T, want, got *keyval.List) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("pairs: got %d want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.At(i), got.At(i)
		if string(w.Key) != string(g.Key) || string(w.Value) != string(g.Value) {
			t.Fatalf("pair %d: got %v want %v", i, g, w)
		}
	}
}

func TestRoundtripMultiFrame(t *testing.T) {
	s := openTestStore(t, Config{})
	in := testList(200)
	r, err := s.WriteRun(in)
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if r.Frames() < 2 {
		t.Fatalf("want a multi-frame run, got %d frames", r.Frames())
	}
	if r.Pairs() != in.Len() || r.PayloadBytes() != in.Bytes() {
		t.Fatalf("run accounting: pairs=%d/%d bytes=%d/%d",
			r.Pairs(), in.Len(), r.PayloadBytes(), in.Bytes())
	}
	assertSame(t, in, readBack(t, s, r))
	st := s.Stats()
	if st.SpillPages != int64(r.Frames()) || st.RestorePages != int64(r.Frames()) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Retries != 0 || st.Failovers != 0 || st.RotDetected != 0 {
		t.Fatalf("fault counters moved on a fault-free run: %+v", st)
	}
}

func TestENOSPCFailsOverToBuddy(t *testing.T) {
	// Find a seed/run where the primary path is refused but the buddy is not.
	plan := &faults.Plan{Seed: 7, Disk: faults.Disk{ENOSPCProb: 0.5}}
	s := openTestStore(t, Config{Plan: plan})
	in := testList(50)
	sawFailover := false
	for i := 0; i < 32 && !sawFailover; i++ {
		r, err := s.WriteRun(in)
		if err != nil {
			var ns *NoSpaceError
			if !errors.As(err, &ns) {
				t.Fatalf("WriteRun: %v", err)
			}
			continue // both paths full for this run id — the typed last resort
		}
		if r.paths[1] != "" && r.paths[0] == "" {
			sawFailover = true
		}
		assertSame(t, in, readBack(t, s, r))
	}
	if !sawFailover {
		t.Fatalf("no run failed over to the buddy path in 32 runs at 50%%")
	}
	if s.Stats().Failovers == 0 {
		t.Fatalf("failover counter did not move")
	}
}

func TestENOSPCBothPathsIsTyped(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Disk: faults.Disk{ENOSPCProb: 1}}
	s := openTestStore(t, Config{Plan: plan})
	_, err := s.WriteRun(testList(10))
	var ns *NoSpaceError
	if !errors.As(err, &ns) {
		t.Fatalf("want *NoSpaceError, got %v", err)
	}
}

func TestTornWriteRetries(t *testing.T) {
	var charged vtime.Duration
	plan := &faults.Plan{Seed: 3, Disk: faults.Disk{TornProb: 0.4}}
	s := openTestStore(t, Config{Plan: plan, Charge: func(d vtime.Duration) { charged += d }})
	in := testList(300)
	r, err := s.WriteRun(in)
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	assertSame(t, in, readBack(t, s, r))
	if s.Stats().Retries == 0 {
		t.Fatalf("no torn write retried at 40%% over %d frames", r.Frames())
	}
	if charged == 0 {
		t.Fatalf("retry backoff charged no virtual time")
	}
}

func TestDiskRotFailsOverToReplica(t *testing.T) {
	// Rot hits replicas independently, so a seed can damage both copies of a
	// frame (the typed-abort case, covered below); scan seeds for one where
	// rot fires but every frame keeps one good copy.
	in := testList(400)
	for seed := int64(1); seed <= 64; seed++ {
		plan := &faults.Plan{Seed: seed, Disk: faults.Disk{RotProb: 0.1}}
		s := openTestStore(t, Config{Plan: plan, Replicate: true})
		r, err := s.WriteRun(in)
		if err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		got := keyval.NewList(r.Pairs())
		err = s.ReadRun(r, func(l *keyval.List) error { got.AppendList(l); return nil })
		if err != nil {
			var ie *IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("non-typed read error: %v", err)
			}
			continue // both replicas of some frame rotted under this seed
		}
		if s.Stats().RotDetected == 0 {
			continue // no rot fired under this seed
		}
		assertSame(t, in, got)
		if s.Stats().Failovers == 0 {
			t.Fatalf("rot detected but no read failed over to the replica")
		}
		// Rot is applied at read time: a second read replays identically.
		assertSame(t, in, readBack(t, s, r))
		return
	}
	t.Fatalf("no seed in [1,64] produced a recoverable rot at 10%%")
}

func TestDiskRotWithoutReplicaIsTyped(t *testing.T) {
	plan := &faults.Plan{Seed: 5, Disk: faults.Disk{RotProb: 1}}
	s := openTestStore(t, Config{Plan: plan})
	r, err := s.WriteRun(testList(100))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	err = s.ReadRun(r, func(*keyval.List) error { return nil })
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("want *IntegrityError, got %v", err)
	}
}

func TestSlowDiskChargesServiceTime(t *testing.T) {
	var charged vtime.Duration
	plan := &faults.Plan{Seed: 1, SlowDisks: []faults.SlowDisk{{Node: 2, Factor: 4}}}
	s := openTestStore(t, Config{Plan: plan, Node: 2, Charge: func(d vtime.Duration) { charged += d }})
	r, err := s.WriteRun(testList(100))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if charged == 0 {
		t.Fatalf("slowdisk write charged no virtual time")
	}
	wrote := charged
	readBack(t, s, r).Release()
	if charged == wrote {
		t.Fatalf("slowdisk read charged no virtual time")
	}
}

func TestHealthyDiskChargesNothing(t *testing.T) {
	var charged vtime.Duration
	s := openTestStore(t, Config{Charge: func(d vtime.Duration) { charged += d }})
	r, err := s.WriteRun(testList(100))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	readBack(t, s, r).Release()
	s.RecordStall(1 << 20)
	if charged != 0 {
		t.Fatalf("healthy disk charged %v of virtual time", charged)
	}
	if s.Stats().Stalls != 1 || s.Stats().StallBytes != 1<<20 {
		t.Fatalf("stall counters: %+v", s.Stats())
	}
}

func TestSinkReceivesDeltas(t *testing.T) {
	var sunk Stats
	s := openTestStore(t, Config{Sink: func(d Stats) { sunk.Add(d) }})
	r, err := s.WriteRun(testList(100))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	readBack(t, s, r).Release()
	if sunk != s.Stats() {
		t.Fatalf("sink diverged from totals: %+v vs %+v", sunk, s.Stats())
	}
}

func TestRemoveDeletesFiles(t *testing.T) {
	s := openTestStore(t, Config{Replicate: true})
	r, err := s.WriteRun(testList(50))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	paths := r.paths
	s.Remove(r)
	for _, p := range paths {
		if p == "" {
			continue
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("run file %s survived Remove", p)
		}
	}
}

// TestOpenClaimsDirExclusively pins the directory claim: a second live store
// on the same Dir fails to open (rather than later deleting the first one's
// runs on Close), and the claim is released by Close.
func TestOpenClaimsDirExclusively(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	first, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r, err := first.WriteRun(testList(50))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if second, err := Open(Config{Dir: dir}); err == nil {
		second.Close()
		t.Fatal("second live store on the same directory opened")
	}
	assertSame(t, testList(50), readBack(t, first, r))
	first.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Close left %s behind (stat: %v)", dir, err)
	}
	again, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	again.Close()
}

func TestScanRunMatchesReader(t *testing.T) {
	s := openTestStore(t, Config{})
	in := testList(120)
	r, err := s.WriteRun(in)
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	data, err := os.ReadFile(r.paths[0])
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	out := keyval.NewList(in.Len())
	if err := ScanRun(data, func(l *keyval.List) error {
		out.AppendList(l)
		return nil
	}); err != nil {
		t.Fatalf("ScanRun: %v", err)
	}
	assertSame(t, in, out)
}

// TestDamagedFrameLengthIsBounded overwrites a run's first frame length with
// a near-4 GiB value. The reader must reject it against the replica's file
// size before allocating: unreplicated, the read fails with a typed
// *IntegrityError; replicated, it fails over to the buddy copy intact.
func TestDamagedFrameLengthIsBounded(t *testing.T) {
	for _, replicate := range []bool{false, true} {
		t.Run(fmt.Sprintf("replicate=%v", replicate), func(t *testing.T) {
			s := openTestStore(t, Config{Replicate: replicate})
			in := testList(100)
			r, err := s.WriteRun(in)
			if err != nil {
				t.Fatalf("WriteRun: %v", err)
			}
			f, err := os.OpenFile(r.paths[0], os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := f.Stat()
			if err == nil {
				_, err = f.WriteAt([]byte{0xF0, 0xFF, 0xFF, 0xFF}, 4)
			}
			f.Close()
			if err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := keyval.NewList(r.Pairs())
			err = s.ReadRun(r, func(l *keyval.List) error { got.AppendList(l); return nil })
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fi.Size())+1<<20 {
				t.Fatalf("read of a %d-byte run allocated %d bytes", fi.Size(), grew)
			}
			if !replicate {
				var ie *IntegrityError
				if !errors.As(err, &ie) {
					t.Fatalf("want *IntegrityError, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadRun: %v", err)
			}
			assertSame(t, in, got)
			if s.Stats().Failovers == 0 {
				t.Fatalf("damaged primary served without a failover")
			}
		})
	}
}
