package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blast"
	"repro/internal/graph"
	"repro/internal/service"
)

const (
	papardClients = 2
	papardNodes   = 4
	papardWorkers = 2
	// deltaShare is the chance that a client's next job is its delta job,
	// until the client has sent deltasPerSecond times the window's length
	// in seconds. The cap fixes how many delta batches the journal holds, so
	// restart_s, which replays every batch, measures the same work whether
	// the window completed more jobs or fewer.
	deltaShare      = 0.25
	deltasPerSecond = 2
	// jobTimeout bounds one Submit-to-Done wait; a job past it counts as
	// failed instead of hanging the run.
	jobTimeout = 60 * time.Second
	// traceSlice is how long a traced run stays in one mode before
	// switching between untraced and traced jobs.
	traceSlice = 500 * time.Millisecond
)

// papardMix is the job mix: partition jobs on two env_nr and two Pokec
// datasets, and one delta stream per client. Client c's delta jobs mutate
// the resident engine of parts[c], an env_nr dataset, and no other client
// touches it, so the order of its batches, and every checksum, is a pure
// function of the seed.
type papardMix struct {
	parts []service.JobSpec
	// partRows is the input row count of each partition spec.
	partRows []int
}

func newPapardMix(o options, r *run) papardMix {
	blastScale, graphScale := 0.001, 0.0005
	if o.tiny {
		blastScale, graphScale = 0.0002, 0.0001
	}
	seeds := []int64{o.seed, o.seed + 1_000_003}
	var m papardMix
	for i, seed := range seeds {
		r.seeds[fmt.Sprintf("env_nr.%d", i)] = seed
		m.parts = append(m.parts, service.JobSpec{Workflow: "blast_partition",
			Dataset: service.DatasetSpec{Kind: "blast", Profile: "env_nr", Scale: blastScale, Seed: seed}})
		m.partRows = append(m.partRows, blast.Generate(blast.EnvNR(), blastScale, seed).NumSequences())
	}
	for i, seed := range seeds {
		r.seeds[fmt.Sprintf("pokec.%d", i)] = seed
		m.parts = append(m.parts, service.JobSpec{Workflow: "hybrid_cut",
			Dataset: service.DatasetSpec{Kind: "graph", Profile: "pokec", Scale: graphScale, Seed: seed}})
		m.partRows = append(m.partRows, graph.Generate(graph.Pokec(), graphScale, seed).NumEdges())
	}
	return m
}

// delta is client c's k-th delta job: one batch appending and deleting 1%
// of the resident rows.
func (m papardMix) delta(c int, seed int64, k int) service.JobSpec {
	spec := m.parts[c]
	spec.Kind = "delta"
	spec.Delta = &service.DeltaSpec{Batches: 1, AppendFrac: 0.01, DeleteFrac: 0.01, Seed: seed*7919 + int64(c)*1_000_003 + int64(k)}
	return spec
}

// changedRows is the number of rows one delta job of client c appends plus
// deletes; appends and deletes match, so the resident count never moves.
func (m papardMix) changedRows(c int) int {
	return 2 * int(0.01*float64(m.partRows[c]))
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	id       string
	part     int // partition spec index, -1 for a delta job
	client   int
	rows     int
	traced   bool
	latency  time.Duration
	submit   time.Duration
	checksum uint64
	moved    int
	makespan int64
}

// submitWait submits one job and waits for it, recording spans when tr is
// set. Failures are recorded on r and reported as ok == false.
func submitWait(srv *service.Server, spec service.JobSpec, tr *tracer, id int, r *run, mu *sync.Mutex) (jobRecord, bool) {
	rec := jobRecord{traced: tr != nil}
	root := tr.begin("job", id, -1)
	defer tr.end(root)
	fail := func(format string, args ...any) (jobRecord, bool) {
		mu.Lock()
		defer mu.Unlock()
		r.fail(format, args...)
		return rec, false
	}
	start := time.Now()
	sp := tr.begin("service.submit", id, root)
	j, aerr := srv.Submit(spec)
	tr.end(sp)
	rec.submit = time.Since(start)
	if aerr != nil {
		return fail("submit: %d %s", aerr.Status, aerr.Reason)
	}
	timeout := time.NewTimer(jobTimeout)
	defer timeout.Stop()
	sp = tr.begin("service.wait", id, root)
	select {
	case <-j.Done():
	case <-timeout.C:
		tr.end(sp)
		return fail("job %s: not done after %v", j.ID, jobTimeout)
	}
	tr.end(sp)
	rec.latency = time.Since(start)
	rec.id = j.ID
	if j.State != service.StateDone {
		return fail("job %s: %s (%s)", j.ID, j.State, j.Error)
	}
	rec.checksum, rec.moved, rec.makespan = j.Checksum, j.MovedRows, j.MakespanNS
	return rec, true
}

// runPapard drives an in-process service.Server with a closed loop of
// clients, then times restarts that replay its journal.
func runPapard(o options, r *run) error {
	m := newPapardMix(o, r)
	var mu sync.Mutex // guards r and jobs once clients run

	// Set-up: a fresh server on a fresh data dir, started, and a warm-up
	// round running every spec once (which also generates the datasets and
	// seeds the engines). Repeated so setup_s is a median.
	var setupS []float64
	var srv *service.Server
	var dir string
	var warm []jobRecord
	var warmSums []uint64
	for i := 0; i < repeats(o, 3); i++ {
		dir = filepath.Join(o.work, fmt.Sprintf("papard-%d", i))
		start := time.Now()
		s, err := service.New(service.Config{Nodes: papardNodes, Workers: papardWorkers, DataDir: dir})
		if err != nil {
			return fmt.Errorf("service.New: %w", err)
		}
		s.Start()
		specs := append([]service.JobSpec(nil), m.parts...)
		for c := 0; c < papardClients; c++ {
			specs = append(specs, m.delta(c, o.seed, -1))
		}
		round := make([]jobRecord, len(specs))
		for k, spec := range specs {
			r.attempted++
			rec, ok := submitWait(s, spec, nil, k, r, &mu)
			if !ok {
				_ = s.Drain() // the failed warm-up job is the error to report
				return fmt.Errorf("warm-up job %d failed: %v", k, r.errors)
			}
			round[k] = rec
		}
		setupS = append(setupS, time.Since(start).Seconds())
		sums := make([]uint64, len(round))
		for k, rec := range round {
			sums[k] = rec.checksum
			if warmSums != nil && sums[k] != warmSums[k] {
				r.fail("warm-up job %d checksum %016x, first set-up %016x", k, sums[k], warmSums[k])
			}
		}
		warmSums, warm = sums, round
		if i < repeats(o, 3)-1 {
			if err := s.Drain(); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		srv = s
	}

	// Measured window: each client submits and waits, one job at a time.
	var jobs []jobRecord
	var ids atomic.Int64
	ids.Store(int64(len(warm)))
	before := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < papardClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*31 + int64(c)))
			maxDeltas := deltasPerSecond * int(o.seconds/time.Second)
			for k := 0; time.Since(start) < o.seconds; {
				var spec service.JobSpec
				part, rows := -1, m.changedRows(c)
				if rng.Float64() < deltaShare && k < maxDeltas {
					spec = m.delta(c, o.seed, k)
					k++
				} else {
					part = rng.Intn(len(m.parts))
					spec, rows = m.parts[part], m.partRows[part]
				}
				spec.Tenant = fmt.Sprintf("client-%d", c)
				var tr *tracer
				if o.trace && (time.Since(start)/traceSlice)%2 == 1 {
					tr = r.spans
				}
				mu.Lock()
				r.attempted++
				mu.Unlock()
				rec, ok := submitWait(srv, spec, tr, int(ids.Add(1)), r, &mu)
				if !ok {
					continue
				}
				rec.part, rec.client, rec.rows = part, c, rows
				mu.Lock()
				jobs = append(jobs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	alloc := readRuntime().allocBytes - before.allocBytes

	for i := range jobs {
		j := &jobs[i]
		if o.corrupt != nil && o.corrupt.flipChecksum {
			j.checksum ^= 1
		}
		if j.part >= 0 && j.checksum != warmSums[j.part] {
			r.fail("job %s: checksum %016x, warm-up %016x", j.id, j.checksum, warmSums[j.part])
		}
	}
	// Restarts and the snapshot are traced too, as operations of their own.
	var tr *tracer
	if o.trace {
		tr = r.spans
	}
	sp := tr.begin("service.snapshot", int(ids.Add(1)), -1)
	snap := srv.Snapshot()
	tr.end(sp)
	journal, err := os.Stat(filepath.Join(dir, "journal.pjl"))
	if err != nil {
		return err
	}
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	// Restart: a new server on the same data dir replays the journal; every
	// job must read back done with the checksum its client saw.
	var restartS []float64
	all := append(append([]jobRecord(nil), warm...), jobs...)
	for i := 0; i < repeats(o, 5); i++ {
		r.attempted++
		runtime.GC() // a restarted process starts from an empty heap
		sp := tr.begin("service.new", int(ids.Add(1)), -1)
		t := time.Now()
		s, err := service.New(service.Config{Nodes: papardNodes, Workers: papardWorkers, DataDir: dir})
		tr.end(sp)
		if err != nil {
			r.fail("restart: %v", err)
			break
		}
		restartS = append(restartS, time.Since(t).Seconds())
		bad := 0
		for _, rec := range all {
			j := s.Job(rec.id)
			if j == nil || j.State != service.StateDone || j.Checksum != rec.checksum {
				bad++
			}
		}
		if bad > 0 {
			r.fail("restart: %d of %d jobs did not read back done with their checksum", bad, len(all))
		}
		if err := s.Drain(); err != nil {
			return fmt.Errorf("drain after restart: %w", err)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var lat, tracedLat, untracedLat, partLat, deltaLat, submitUS, moved []float64
	rows, changed, movedSum := 0, 0, 0
	for _, j := range jobs {
		l := ms(j.latency)
		lat = append(lat, l)
		rows += j.rows
		if j.traced {
			tracedLat = append(tracedLat, l)
			submitUS = append(submitUS, float64(j.submit)/float64(time.Microsecond))
		} else {
			untracedLat = append(untracedLat, l)
		}
		if j.part >= 0 {
			partLat = append(partLat, l)
			continue
		}
		deltaLat = append(deltaLat, l)
		moved = append(moved, float64(j.moved))
		movedSum += j.moved
		changed += m.changedRows(j.client)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed in the measured window")
	}
	if !o.trace {
		var makespan float64
		for _, w := range warm {
			makespan += float64(w.makespan)
		}
		r.set("latency_p50_ms", median(lat), "ms")
		r.set("latency_tail_ms", quantile(lat, 0.99), "ms")
		r.set("rows_per_s", float64(rows)/elapsed.Seconds(), "rows/s")
		r.set("jobs_per_s", float64(len(jobs))/elapsed.Seconds(), "1/s")
		r.set("makespan_virtual_ms", makespan/float64(len(warm))/1e6, "ms_virtual")
		r.set("alloc_mb", float64(alloc)/float64(len(jobs))/1e6, "MB")
		r.set("peak_rss_mb", rss, "MB")
		r.set("setup_s", median(setupS), "s")
		r.set("restart_s", median(restartS), "s")
		fmt.Fprintf(os.Stderr, "perfbench: papard-mixed: %d jobs (%d delta) in %v; restarts %.3f s\n", len(jobs), len(deltaLat), elapsed.Round(time.Millisecond), restartS)
		return nil
	}
	accepted := float64(snap.Accepted)
	r.set("service.submit_us_p50", median(submitUS), "us")
	r.set("service.submit_us_p99", quantile(submitUS, 0.99), "us")
	r.set("service.queue_depth_max", float64(snap.DepthMax), "count")
	r.set("service.journal_bytes_per_job", float64(journal.Size())/accepted, "B")
	r.set("service.journal_appends_per_job", float64(snap.JournalOps)/accepted, "count")
	r.set("service.calibration", snap.Calibration, "ratio")
	r.set("service.retries", float64(snap.Retries), "count")
	r.set("service.partition_latency_p50_ms", median(partLat), "ms")
	r.set("incremental.delta_latency_p50_ms", median(deltaLat), "ms")
	r.set("incremental.moved_rows_per_job", median(moved), "rows")
	if changed > 0 {
		r.set("incremental.moved_per_changed_row", float64(movedSum)/float64(changed), "ratio")
	}
	r.set("trace.overhead_frac", median(tracedLat)/median(untracedLat)-1, "fraction")
	r.set("trace.unattributed_frac", r.spans.unattributed("job"), "fraction")
	return nil
}
