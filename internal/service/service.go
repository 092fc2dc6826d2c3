// Package service is the resident partitioning daemon behind cmd/papard: a
// long-running, multi-tenant job service wrapped around the simulated
// cluster, built so that the robustness bar of ROADMAP item 2 holds:
//
//   - Crash safety: every admission and completion is framed into a CRC32C
//     write-ahead journal before the client sees the response. A kill -9'd
//     daemon replays the journal on restart and re-runs every job it owes;
//     job specs are deterministic, so re-runs produce byte-identical
//     partitions (the -exp service chaos scenario and the CI smoke job
//     enforce this).
//   - Admission control: the planopt cost model prices every queued and
//     running job; a submit whose predicted wait + run exceeds the deadline
//     budget is rejected with 429 and a Retry-After estimate instead of
//     growing the queue without bound.
//   - Deadlines: a job's wall-clock life is bounded; expiry cancels the run
//     cooperatively through core.ExecOptions.Cancel.
//   - Retries: failed attempts back off exponentially with deterministic
//     jitter, capped; injected fault plans re-roll their seed per attempt.
//     Idempotency keys dedupe client resubmissions, so retries at every
//     layer are exactly-once in effect.
//   - Fair share: dispatch picks the tenant with the least consumed virtual
//     rank-time (see fairQueue), so one tenant's flood cannot starve
//     another's trickle.
//
// Workers own resident clusters (one each) and run jobs back-to-back on
// them — the cluster-reuse contract pinned by internal/core's reuse tests.
package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obsv"
	"repro/internal/vtime"
)

// Config sizes the daemon.
type Config struct {
	// Nodes is the simulated node count of each worker's resident cluster
	// (2 ranks per node, the paper's shape). Default 4.
	Nodes int
	// Workers is the number of resident clusters executing jobs
	// concurrently. Default 2.
	Workers int
	// QueueLimit is the hard cap on queued jobs; admission rejects beyond
	// it regardless of the cost model. Default 4096.
	QueueLimit int
	// Budget is the deadline budget admission defends: a submit whose
	// predicted queue wait + run time exceeds it is shed with 429. It also
	// serves as the default per-job deadline. Default 30s.
	Budget time.Duration
	// RetryMax caps execution attempts per job. Default 3.
	RetryMax int
	// RetryBase is the first retry's backoff; attempt k waits
	// RetryBase<<k plus deterministic jitter. Default 10ms.
	RetryBase time.Duration
	// DataDir holds the journal and persisted partitions. Empty disables
	// the journal (volatile daemon — tests only).
	DataDir string
	// JournalSync fsyncs every journal append (durable against power loss;
	// kill -9 safety does not need it).
	JournalSync bool
	// Obs receives service counters (queue depth, rejects, retries, p99).
	// Nil disables instrumentation.
	Obs *obsv.Recorder
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.Budget <= 0 {
		c.Budget = 30 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	return c
}

// AdmissionError is a rejected submission: an HTTP status, a reason, and —
// for 429s — how long the client should wait before retrying.
type AdmissionError struct {
	Status     int
	Reason     string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string { return e.Reason }

// Server is the resident partitioning service.
type Server struct {
	cfg     Config
	obs     *obsv.Recorder
	journal *Journal
	rts     runtimes

	// engines holds the resident incremental engines (one per runtime key)
	// that delta/repartition/coalesce jobs mutate; engMu guards the map only,
	// each slot carries its own lock.
	engMu   sync.Mutex
	engines map[string]*deltaEngine

	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*Job
	// byKey indexes jobs by idempotency key for exactly-once submits.
	byKey    map[string]*Job
	q        *fairQueue
	seq      int64
	running  int
	draining bool
	crashed  bool
	crashCh  chan struct{}
	wg       sync.WaitGroup

	// calib is the EWMA of measured wall-nanoseconds per virtual-nanosecond
	// of executed work — the bridge between the cost model's virtual
	// predictions and the wall-clock deadline budget.
	calib float64

	stats     Counters
	latencies []time.Duration
}

// Counters are the service's monotonic counters (see also Snapshot).
type Counters struct {
	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Deduped   int64 `json:"deduped"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retries   int64 `json:"retries"`
	Recovered int64 `json:"recovered"`
	DepthMax  int64 `json:"queue_depth_max"`
}

// Snapshot is the /v1/stats document.
type Snapshot struct {
	Counters
	QueueDepth  int              `json:"queue_depth"`
	Running     int              `json:"running"`
	Draining    bool             `json:"draining"`
	TenantUsage map[string]int64 `json:"tenant_usage_ns"`
	P50MS       float64          `json:"p50_ms"`
	P99MS       float64          `json:"p99_ms"`
	Calibration float64          `json:"calibration"`
	JournalOps  int64            `json:"journal_appends"`
}

// New builds a server and, when cfg.DataDir is set, replays the journal:
// jobs accepted but not finished by the previous process are re-enqueued
// (marked Recovered) and will re-run to byte-identical partitions; finished
// jobs keep their terminal state so clients can still query them and
// idempotency keys stay deduplicated across the crash.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		obs:     cfg.Obs,
		engines: map[string]*deltaEngine{},
		jobs:    map[string]*Job{},
		byKey:   map[string]*Job{},
		q:       newFairQueue(),
		crashCh: make(chan struct{}),
		calib:   1.0,
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: data dir: %w", err)
		}
		j, recs, err := OpenJournal(filepath.Join(cfg.DataDir, "journal.pjl"), cfg.JournalSync)
		if err != nil {
			return nil, err
		}
		s.journal = j
		if err := s.recover(recs); err != nil {
			j.Close()
			return nil, err
		}
	}
	return s, nil
}

// recover rebuilds job state from replayed journal records.
func (s *Server) recover(recs []Record) error {
	var order []*Job
	for _, rec := range recs {
		switch rec.Type {
		case "accepted":
			if rec.Spec == nil {
				return fmt.Errorf("service: journal accepted record %s lacks a spec", rec.ID)
			}
			j := &Job{
				ID:    rec.ID,
				Spec:  *rec.Spec,
				State: StateQueued,
				key:   rec.Key,
				done:  make(chan struct{}),
			}
			s.jobs[j.ID] = j
			if j.key != "" {
				s.byKey[j.key] = j
			}
			order = append(order, j)
			var seq int64
			if _, err := fmt.Sscanf(rec.ID, "j-%d", &seq); err == nil && seq >= s.seq {
				s.seq = seq + 1
			}
		case "applied":
			// A committed engine mutation (delta batch or resize): re-derive
			// and re-apply it so the resident engine state matches what the
			// dead process had acknowledged.
			j := s.jobs[rec.ID]
			if j == nil {
				return fmt.Errorf("service: journal applied record for unknown job %s", rec.ID)
			}
			if err := s.replayIncremental(rec, j); err != nil {
				return err
			}
		case "done", "failed":
			j := s.jobs[rec.ID]
			if j == nil {
				continue
			}
			if rec.Type == "done" {
				j.State = StateDone
				j.Checksum = rec.Checksum
				j.MakespanNS = rec.MakespanNS
			} else {
				j.State = StateFailed
				j.Error = rec.Error
			}
			j.Attempts = rec.Attempts
			close(j.done)
		}
	}
	// Re-enqueue unfinished jobs in acceptance order; they get a fresh
	// deadline (the original wall clock died with the old process).
	now := time.Now()
	for _, j := range order {
		if j.Terminal() {
			continue
		}
		rt, err := s.rts.resolve(&j.Spec)
		if err != nil {
			// The spec passed validation at admission; failing to resolve it
			// now is a server-side problem but must not wedge recovery.
			s.finalize(j, StateFailed, fmt.Sprintf("recovery: %v", err), 0, 0, true)
			continue
		}
		j.rt = rt
		j.predicted = s.predictJob(rt, &j.Spec)
		j.Recovered = true
		j.accepted = now
		j.deadline = now.Add(s.jobDeadline(&j.Spec))
		s.q.push(j)
		s.stats.Recovered++
	}
	s.stats.Accepted = int64(len(order))
	if s.q.depth > int(s.stats.DepthMax) {
		s.stats.DepthMax = int64(s.q.depth)
	}
	return nil
}

// jobDeadline is the effective wall-clock budget for one job.
func (s *Server) jobDeadline(spec *JobSpec) time.Duration {
	if spec.DeadlineMS > 0 {
		return time.Duration(spec.DeadlineMS) * time.Millisecond
	}
	return s.cfg.Budget
}

// Start launches the worker pool. Each worker owns one resident simulated
// cluster for its whole life; jobs run back-to-back on it (cluster reuse).
func (s *Server) Start() {
	for w := 0; w < s.cfg.Workers; w++ {
		wk := &worker{id: w, cl: cluster.New(cluster.DefaultConfig(s.cfg.Nodes))}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop(wk)
		}()
	}
}

// worker is one execution lane: a resident cluster that outlives jobs.
type worker struct {
	id int
	cl *cluster.Cluster
}

// Submit admits one job. It returns the (possibly pre-existing, when the
// idempotency key was seen before) job, or an AdmissionError carrying the
// HTTP status and Retry-After hint.
func (s *Server) Submit(spec JobSpec) (*Job, *AdmissionError) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if err := spec.Validate(); err != nil {
		return nil, &AdmissionError{Status: 400, Reason: err.Error()}
	}
	rt, err := s.rts.resolve(&spec)
	if err != nil {
		return nil, &AdmissionError{Status: 400, Reason: err.Error()}
	}
	predicted := s.predictJob(rt, &spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted++
	if s.crashed {
		return nil, &AdmissionError{Status: 503, Reason: "service crashed"}
	}
	if s.draining {
		return nil, &AdmissionError{Status: 503, Reason: "service draining"}
	}
	if spec.IdempotencyKey != "" {
		if j, ok := s.byKey[spec.IdempotencyKey]; ok {
			s.stats.Deduped++
			return j, nil
		}
	}

	// Admission control: the cost model prices the backlog; if this job
	// cannot predictably finish inside the deadline budget (or its own
	// deadline, whichever is tighter), shed it now with a drain estimate
	// rather than queueing it to die.
	limit := s.cfg.Budget
	if d := s.jobDeadline(&spec); d < limit {
		limit = d
	}
	wait := s.q.predictedWait(s.cfg.Workers, s.calib)
	runWall := time.Duration(float64(predicted) * s.calib)
	if s.q.depth >= s.cfg.QueueLimit || wait+runWall > limit {
		s.stats.Rejected++
		s.observe()
		retry := wait + runWall - limit
		if retry < time.Second {
			retry = time.Second
		}
		return nil, &AdmissionError{
			Status:     429,
			Reason:     fmt.Sprintf("queue over budget: predicted wait %v + run %v > %v", wait.Round(time.Millisecond), runWall.Round(time.Millisecond), limit),
			RetryAfter: retry,
		}
	}

	now := time.Now()
	j := &Job{
		ID:        fmt.Sprintf("j-%08d", s.seq),
		Spec:      spec,
		State:     StateQueued,
		key:       spec.IdempotencyKey,
		rt:        rt,
		predicted: predicted,
		accepted:  now,
		deadline:  now.Add(s.jobDeadline(&spec)),
		done:      make(chan struct{}),
	}
	s.seq++
	if s.journal != nil {
		if err := s.journal.Append(Record{Type: "accepted", ID: j.ID, Key: j.key, Tenant: spec.Tenant, Spec: &spec}); err != nil {
			return nil, &AdmissionError{Status: 500, Reason: err.Error()}
		}
	}
	s.jobs[j.ID] = j
	if j.key != "" {
		s.byKey[j.key] = j
	}
	s.stats.Accepted++
	s.q.push(j)
	if int64(s.q.depth) > s.stats.DepthMax {
		s.stats.DepthMax = int64(s.q.depth)
	}
	s.observe()
	s.cond.Signal()
	return j, nil
}

// Job returns a job by ID (nil if unknown).
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// workerLoop pulls jobs under fair share until drain or crash.
func (s *Server) workerLoop(w *worker) {
	for {
		s.mu.Lock()
		for s.q.depth == 0 && !s.draining && !s.crashed {
			s.cond.Wait()
		}
		if s.crashed || s.draining {
			s.mu.Unlock()
			return
		}
		j := s.q.pop()
		if j == nil {
			s.mu.Unlock()
			continue
		}
		j.State = StateRunning
		s.running++
		s.mu.Unlock()

		s.runJob(w, j)

		s.mu.Lock()
		s.running--
		if s.running == 0 && s.q.depth == 0 {
			s.cond.Broadcast() // wake WaitIdle
		}
		s.mu.Unlock()
	}
}

// runJob drives one job through its attempt loop: deadline checks, the
// execution itself, and capped exponential backoff with deterministic
// jitter between failed attempts.
func (s *Server) runJob(w *worker, j *Job) {
	for {
		if s.isCrashed() {
			return // abandon: the journal holds no terminal record, recovery re-runs it
		}
		attempt := j.Attempts
		if !time.Now().Before(j.deadline) {
			s.fail(j, fmt.Sprintf("deadline exceeded after %d attempts", attempt))
			return
		}
		res, err := s.executeAttempt(w, j, attempt)
		s.mu.Lock()
		j.Attempts = attempt + 1
		s.mu.Unlock()
		if s.isCrashed() {
			return
		}
		if err == nil {
			s.complete(j, res)
			return
		}
		if errors.Is(err, core.ErrCanceled) {
			s.fail(j, fmt.Sprintf("deadline exceeded mid-run (attempt %d)", attempt+1))
			return
		}
		if attempt+1 >= s.cfg.RetryMax {
			s.fail(j, fmt.Sprintf("failed after %d attempts: %v", attempt+1, err))
			return
		}
		s.mu.Lock()
		s.stats.Retries++
		s.observe()
		s.mu.Unlock()
		if !s.backoff(j, attempt) {
			return
		}
	}
}

// backoff sleeps the capped exponential backoff with deterministic jitter
// before the next attempt; false means the sleep was cut by a crash.
func (s *Server) backoff(j *Job, attempt int) bool {
	d := s.cfg.RetryBase << attempt
	if limit := time.Second; d > limit {
		d = limit
	}
	// Jitter is a pure function of (job, attempt): retries stay
	// deterministic across journal replays, yet distinct jobs desynchronize
	// instead of thundering back together.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", j.ID, attempt)
	d += time.Duration(h.Sum64() % uint64(d/2+1))
	select {
	case <-time.After(d):
		return true
	case <-s.crashCh:
		return false
	}
}

// attemptResult is what a successful execution leaves behind.
type attemptResult struct {
	checksum   uint64
	makespan   vtime.Duration
	wall       time.Duration
	partitions int
	// moved is the incremental engine's shipped-row count (incremental kinds).
	moved int
}

// executeAttempt runs one attempt on the worker's resident cluster.
func (s *Server) executeAttempt(w *worker, j *Job, attempt int) (attemptResult, error) {
	if attempt < j.Spec.FailAttempts {
		return attemptResult{}, fmt.Errorf("service: injected fault (attempt %d of %d doomed)", attempt+1, j.Spec.FailAttempts)
	}

	// Cancellation: the deadline timer and the crash switch share one
	// channel threaded into core's job-boundary polls.
	cancel := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		t := time.NewTimer(time.Until(j.deadline))
		defer t.Stop()
		select {
		case <-t.C:
			close(cancel)
		case <-s.crashCh:
			close(cancel)
		case <-stop:
		}
	}()
	defer close(stop)

	switch j.Spec.Kind {
	case "delta", "repartition", "coalesce":
		return s.executeIncremental(j, attempt, cancel)
	}

	cl := w.cl
	in := core.Input{LocalRows: spreadRows(j.rt.rows, cl.Size())}
	opts := core.ExecOptions{Cancel: cancel}
	start := time.Now()
	var res *core.Result
	var err error
	if j.Spec.Faults != "" {
		var fp *faults.Plan
		fp, err = faults.Parse(j.Spec.Faults)
		if err != nil {
			return attemptResult{}, fmt.Errorf("service: fault plan: %w", err)
		}
		// Each attempt is a fresh run of the environment: re-seed so
		// probabilistic faults re-roll instead of replaying the failure.
		reseeded := *fp
		reseeded.Seed = fp.Seed + int64(attempt)*1000003
		cl.SetFaultPlan(&reseeded)
		res, _, err = core.ExecuteResilientOpts(cl, j.rt.plan, in, nil, opts)
		cl.SetFaultPlan(nil)
	} else {
		cl.SetFaultPlan(nil)
		res, err = core.ExecuteOpts(cl, j.rt.plan, in, opts)
	}
	if err != nil {
		return attemptResult{}, err
	}
	out := attemptResult{
		checksum:   core.FingerprintPartitions(res.Partitions),
		makespan:   res.Makespan,
		wall:       time.Since(start),
		partitions: len(res.Partitions),
	}
	if j.Spec.Persist && s.cfg.DataDir != "" {
		if err := s.persist(j, res); err != nil {
			return attemptResult{}, err
		}
	}
	return out, nil
}

// persist writes the job's partitions under DataDir/jobs/<id>, atomically:
// a temp directory filled first, then renamed into place, so a crash cannot
// leave a half-written result that a client could mistake for a finished
// one (the journal's done record is appended only after the rename).
func (s *Server) persist(j *Job, res *core.Result) error {
	final := filepath.Join(s.cfg.DataDir, "jobs", j.ID)
	tmp := final + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := core.WritePartitions(j.rt.plan, res, tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(final); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// spreadRows splits rows into nranks contiguous chunks (the input splitter's
// placement).
func spreadRows(rows []core.Row, nranks int) [][]core.Row {
	out := make([][]core.Row, nranks)
	for i := 0; i < nranks; i++ {
		lo := len(rows) * i / nranks
		hi := len(rows) * (i + 1) / nranks
		out[i] = rows[lo:hi]
	}
	return out
}

// complete finalizes a successful job.
func (s *Server) complete(j *Job, res attemptResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Calibration: fold measured wall-per-virtual into the EWMA the
	// admission controller prices waits with.
	if res.makespan > 0 && res.wall > 0 {
		ratio := float64(res.wall) / float64(res.makespan)
		s.calib = 0.7*s.calib + 0.3*ratio
	}
	s.q.finish(j, res.makespan)
	j.MovedRows = res.moved
	s.finalize(j, StateDone, "", res.checksum, int64(res.makespan), false)
}

// fail finalizes a permanently failed job.
func (s *Server) fail(j *Job, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.finish(j, 0)
	s.finalize(j, StateFailed, reason, 0, 0, false)
}

// finalize records a terminal state (mu held). inRecovery softens journal
// append failures during replay (the job is already being failed).
func (s *Server) finalize(j *Job, state JobState, reason string, checksum uint64, makespanNS int64, inRecovery bool) {
	if j.Terminal() {
		return
	}
	j.State = state
	j.Error = reason
	j.Checksum = checksum
	j.MakespanNS = makespanNS
	if !j.accepted.IsZero() {
		j.LatencyMS = float64(time.Since(j.accepted)) / float64(time.Millisecond)
	}
	if state == StateDone {
		s.stats.Completed++
		s.latencies = append(s.latencies, time.Since(j.accepted))
	} else {
		s.stats.Failed++
	}
	if s.journal != nil && !s.crashed {
		rec := Record{Type: "done", ID: j.ID, Checksum: checksum, MakespanNS: makespanNS, Attempts: j.Attempts}
		if state == StateFailed {
			rec = Record{Type: "failed", ID: j.ID, Error: reason, Attempts: j.Attempts}
		}
		if err := s.journal.Append(rec); err != nil && !inRecovery {
			// The run happened; losing the terminal record only means a
			// re-run after restart. Surface it on the job, keep serving.
			j.Error = fmt.Sprintf("journal append failed: %v", err)
		}
	}
	s.observe()
	close(j.done)
}

// isCrashed reports the test-only hard-crash switch.
func (s *Server) isCrashed() bool {
	select {
	case <-s.crashCh:
		return true
	default:
		return false
	}
}

// Crash simulates a kill -9 for in-process tests: workers abandon their
// jobs mid-flight (no terminal journal records, no drain) and the server
// stops accepting. The journal file is left exactly as a dead process would
// leave it; a new Server on the same DataDir must recover.
func (s *Server) Crash() {
	s.mu.Lock()
	if !s.crashed {
		s.crashed = true
		close(s.crashCh)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Drain is the graceful SIGTERM path: stop accepting and dispatching, let
// running jobs finish, flush and close the journal. Jobs still queued stay
// journaled as accepted and resume on the next start.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// WaitIdle blocks until every accepted job has reached a terminal state (or
// the timeout elapses; zero means wait forever). It reports whether the
// service went idle.
func (s *Server) WaitIdle(timeout time.Duration) bool {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		s.mu.Lock()
		idle := s.q.depth == 0 && s.running == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Snapshot captures the current service statistics.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Counters:    s.stats,
		QueueDepth:  s.q.depth,
		Running:     s.running,
		Draining:    s.draining,
		TenantUsage: map[string]int64{},
		Calibration: s.calib,
	}
	for t, u := range s.q.usage {
		snap.TenantUsage[t] = u
	}
	if s.journal != nil {
		snap.JournalOps = s.journal.Appends()
	}
	snap.P50MS, snap.P99MS = percentiles(s.latencies)
	return snap
}

// percentiles computes p50/p99 of wall latencies in milliseconds.
func percentiles(lat []time.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}

// observe folds the live counters into the obsv recorder (mu held; the
// recorder is nil-safe).
func (s *Server) observe() {
	s.obs.SetCount("service_queue_depth", int64(s.q.depth))
	s.obs.SetCount("service_queue_depth_max", s.stats.DepthMax)
	s.obs.SetCount("service_admission_rejects", s.stats.Rejected)
	s.obs.SetCount("service_retries", s.stats.Retries)
	s.obs.SetCount("service_jobs_completed", s.stats.Completed)
	s.obs.SetCount("service_jobs_failed", s.stats.Failed)
	if len(s.latencies) > 0 {
		_, p99 := percentiles(s.latencies)
		s.obs.SetCount("service_p99_latency_ns", int64(p99*float64(time.Millisecond)))
	}
}
