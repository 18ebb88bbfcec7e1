// Package service is coverd's solve plane: a bounded job scheduler that
// multiplexes many concurrent solve requests over the repository's solvers,
// plus the HTTP layer (server.go) that exposes it as a streaming JSON API.
//
// # Scheduling model
//
// A Scheduler owns a fixed pool of Config.Slots worker goroutines; each
// running job solves with Config.JobWorkers-way guess-grid parallelism
// (streamcover.WithParallelism), so Slots × JobWorkers is the process-wide
// worker budget — by default it is sized to GOMAXPROCS, the same global
// budget internal/parallel resolves for a single in-process solve.
// Admission is two-staged and strictly bounded: at most Slots jobs run and
// at most QueueDepth more wait in the queue; a Submit beyond that fails
// fast with ErrQueueFull (backpressure to the client, HTTP 429) instead of
// buffering unboundedly.
//
// Submitting pins the job's instance in the registry until the job reaches
// a terminal state, so the memory-budget eviction can never pull an
// instance out from under queued or running work.
//
// # Determinism over the wire
//
// A job's result is a pure function of (instance content hash, normalized
// solve options): Submit normalizes and keys each request with
// internal/catalog, and the job runs through catalog.Run — the same table
// covercli solves through locally — with a caller-supplied seed. The
// worker count is excluded from the function by the library's
// parallelism-determinism contract. That is what makes the result cache
// sound — Results returns bit-identical covers, pass counts and space
// accounting whether computed or cached, and a coverd answer equals the
// corresponding local solve exactly (pinned by TestWireDeterminism,
// TestCatalogConformance, the remote column of the root package's
// conformance matrix and the serve-smoke CI target).
//
// # Cancellation
//
// Every running job owns a context; Cancel (DELETE /v1/jobs/{id}, or a
// waiting client disconnecting) cancels it and the solve aborts at the
// next pass boundary or chunk poll (see streamcover.WithContext). Queued
// jobs cancel immediately without occupying a slot.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/catalog"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/registry"
)

// The wire types live in the public client package (shared with the Go
// client so server and client cannot drift); the scheduler aliases them.
type (
	SolveRequest = client.SolveRequest
	SolveResult  = client.SolveResult
	JobStatus    = client.JobStatus
	Job          = client.Job
	Stats        = client.SchedulerStats
)

// Job lifecycle states, re-exported for readability at use sites.
const (
	StatusQueued   = client.StatusQueued
	StatusRunning  = client.StatusRunning
	StatusDone     = client.StatusDone
	StatusFailed   = client.StatusFailed
	StatusCanceled = client.StatusCanceled
)

// job is the scheduler-owned mutable record behind Job snapshots. Fields
// are guarded by Scheduler.mu; done is closed exactly once on reaching a
// terminal status.
type job struct {
	id       string
	status   JobStatus
	req      SolveRequest // normalized
	key      string       // catalog.Key(req); "" when caching is off
	result   *SolveResult
	err      error
	cacheHit bool
	created  time.Time
	started  time.Time
	finished time.Time
	release  func()             // registry unpin, called once on terminal
	cancel   context.CancelFunc // non-nil while running
	canceled bool               // cancel requested (covers the queued window)
	trace    *traceRecorder     // per-pass solve timeline (streaming algos)
	done     chan struct{}

	// Request-tracing state: nil/empty when the submitting request carried
	// no span (tracing off). The job span brackets the job's whole life —
	// it keeps the trace open in the flight recorder until the job is
	// terminal, even after the submitting HTTP request has returned — and
	// the queue span times the admission-to-worker wait under it.
	span      *trace.Span
	queueSpan *trace.Span
	traceID   string
}

// BadRequestError is a validation failure the HTTP layer maps to 400: a
// request the catalog rejects, or one that names no instance.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// ErrQueueFull is the admission-bound backpressure signal (HTTP 429).
var ErrQueueFull = errors.New("service: job queue full, retry later")

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("service: scheduler stopped")

// ErrUnknownJob is returned for job IDs that were never issued.
var ErrUnknownJob = errors.New("service: unknown job id")

// Config parameterizes NewScheduler. The zero value is production-usable.
type Config struct {
	// Slots is the number of concurrently running jobs (worker pool size).
	// Default: 2, clamped to GOMAXPROCS.
	Slots int
	// JobWorkers is the per-job guess-grid parallelism. Default:
	// GOMAXPROCS / Slots (at least 1), so that Slots × JobWorkers fills the
	// same global budget a single in-process solve would.
	JobWorkers int
	// QueueDepth is the number of admitted-but-not-running jobs held before
	// Submit fails with ErrQueueFull. Default 64.
	QueueDepth int
	// CacheEntries caps the result cache (FIFO eviction). Default 1024;
	// negative disables caching.
	CacheEntries int
	// MaxJobs caps retained job records: once exceeded, the oldest
	// *terminal* jobs are forgotten (their IDs return ErrUnknownJob), so a
	// long-running daemon cannot leak one record per request. In-flight
	// jobs are never pruned; they are bounded by Slots+QueueDepth anyway.
	// Default 4096.
	MaxJobs int
	// DisableReplay turns the pass-replay plane off: no plans are built or
	// attached, and every solve streams honestly each pass. The default
	// (false) builds a replay plan lazily the first time an instance is
	// solved by a solver that consumes one (the multi-pass setcover
	// algorithm) and serves all later
	// passes — of that job and every subsequent one on the instance — from
	// it. Replay never changes results (bit-identical by construction and
	// by the conformance matrix's replay column); plan bytes are charged
	// to the registry budget and reported as plan_bytes in /v1/stats.
	DisableReplay bool
	// Metrics, when non-nil, is the obs registry the scheduler registers
	// its instrument families on (job counters, queue/running gauges, job
	// and pass duration histograms, result-cache hit/miss). nil disables
	// scheduler metrics; per-job pass traces are recorded either way.
	Metrics *obs.Registry
	// Logger receives structured job-lifecycle logs (submitted, started,
	// finished with status/duration/accounting). nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if p := runtime.GOMAXPROCS(0); c.Slots > p {
		c.Slots = p
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0) / c.Slots
		if c.JobWorkers < 1 {
			c.JobWorkers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	return c
}

// Scheduler admits solve jobs into a fixed worker pool over a registry of
// resident instances. Create with NewScheduler; Stop for a clean shutdown.
type Scheduler struct {
	cfg Config
	reg *registry.Registry

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // job IDs in submit order, scanned by gcJobsLocked
	queue     chan *job
	stopped   bool
	nextID    uint64
	cache     map[string]*SolveResult
	cacheFIFO []string
	stats     Stats

	metrics *schedMetrics // nil without a Config.Metrics registry
	log     *slog.Logger

	wg sync.WaitGroup
}

// NewScheduler starts the worker pool and returns the scheduler.
func NewScheduler(reg *registry.Registry, cfg Config) *Scheduler {
	c := cfg.withDefaults()
	s := &Scheduler{
		cfg:   c,
		reg:   reg,
		jobs:  map[string]*job{},
		queue: make(chan *job, c.QueueDepth),
		cache: map[string]*SolveResult{},
		log:   c.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if c.Metrics != nil {
		s.metrics = newSchedMetrics(c.Metrics, s)
	}
	for i := 0; i < c.Slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Config returns the resolved configuration (defaults applied).
func (s *Scheduler) Config() Config { return s.cfg }

// Submit validates and admits a solve job, returning its snapshot
// (StatusQueued, or StatusDone immediately on a cache hit). It fails with
// a *BadRequestError for malformed requests, registry.ErrNotFound for an
// unknown instance hash, ErrQueueFull under backpressure and ErrStopped
// after shutdown.
func (s *Scheduler) Submit(req SolveRequest) (Job, error) {
	return s.SubmitContext(context.Background(), req)
}

// SubmitContext is Submit with a caller context, used only for tracing: when
// ctx carries a span (the HTTP root), the scheduler hangs its admission,
// pin, cache, queue and solve spans off it, and the job's snapshots carry
// the trace ID. The context does NOT bound the job's execution — jobs are
// owned by the scheduler and canceled via Cancel, never by the submitting
// request going away (a waiting handler does that explicitly).
func (s *Scheduler) SubmitContext(ctx context.Context, req SolveRequest) (Job, error) {
	ctx, adm := trace.StartSpan(ctx, "admission")
	defer adm.End()
	req, err := catalog.Normalize(req)
	if err != nil {
		return Job{}, &BadRequestError{err.Error()}
	}
	if req.Instance == "" {
		return Job{}, &BadRequestError{"missing instance hash (upload via POST /v1/instances first)"}
	}
	adm.SetAttr("algo", req.Algo)
	adm.SetAttr("instance", req.Instance)
	_, pin := trace.StartSpan(ctx, "pin")
	_, release, err := s.reg.Acquire(req.Instance)
	pin.SetBool("ok", err == nil)
	pin.End()
	if err != nil {
		return Job{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		release()
		if s.metrics != nil {
			s.metrics.rejected.With("stopped").Inc()
		}
		return Job{}, ErrStopped
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%d", s.nextID),
		status:  StatusQueued,
		req:     req,
		created: time.Now(),
		release: release,
		done:    make(chan struct{}),
	}
	if adm.Recording() {
		j.traceID = adm.Context().TraceID.String()
	}
	if s.cfg.CacheEntries > 0 { // withDefaults leaves it positive or negative
		j.key = catalog.Key(req)
	}
	if !req.NoCache && s.cfg.CacheEntries > 0 {
		_, cs := trace.StartSpan(ctx, "cache")
		res, ok := s.cache[j.key]
		cs.SetBool("hit", ok)
		cs.End()
		if ok {
			now := time.Now()
			j.status = StatusDone
			j.result = res
			j.cacheHit = true
			j.started, j.finished = now, now
			close(j.done)
			release()
			s.stats.CacheHits++
			s.stats.Completed++
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			s.stats.Submitted++
			s.gcJobsLocked()
			if s.metrics != nil {
				s.metrics.submitted.Inc()
				s.metrics.cacheHits.Inc()
				s.metrics.completed.With(string(StatusDone)).Inc()
			}
			s.log.Info("job cache hit", jobLogAttrs(j, "algo", req.Algo, "instance", req.Instance)...)
			return j.snapshotLocked(), nil
		}
		if s.metrics != nil {
			s.metrics.cacheMisses.Inc()
		}
	}
	select {
	case s.queue <- j:
	default:
		release()
		if s.metrics != nil {
			s.metrics.rejected.With("queue_full").Inc()
		}
		s.log.Warn("job rejected: queue full", "algo", req.Algo, "instance", req.Instance,
			"queue_depth", s.cfg.QueueDepth)
		return Job{}, ErrQueueFull
	}
	// The job span stays open until finishLocked, holding the trace in
	// flight across the async gap; the queue span under it times the wait
	// for a worker slot (ended in runJob, or at cancellation).
	jctx, jspan := trace.StartSpan(ctx, "job")
	jspan.SetAttr("job", j.id)
	j.span = jspan
	_, j.queueSpan = trace.StartSpan(jctx, "queue")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.stats.Submitted++
	s.stats.Queued++
	s.gcJobsLocked()
	if s.metrics != nil {
		s.metrics.submitted.Inc()
	}
	s.log.Info("job queued", jobLogAttrs(j, "algo", req.Algo, "instance", req.Instance,
		"seed", req.Seed, "alpha", req.Alpha, "order", req.Order)...)
	return j.snapshotLocked(), nil
}

// jobLogAttrs builds a job-lifecycle log attribute list, appending the
// trace ID when the job was submitted under a traced request so one grep
// pivots between access log, lifecycle log and recorded trace.
func jobLogAttrs(j *job, attrs ...any) []any {
	out := append([]any{"job", j.id}, attrs...)
	if j.traceID != "" {
		out = append(out, "trace_id", j.traceID)
	}
	return out
}

// gcJobsLocked bounds the job table at Config.MaxJobs records by
// forgetting the oldest terminal jobs (their IDs stop resolving). Caller
// holds s.mu. In-flight jobs are always kept — they are bounded by
// Slots+QueueDepth, so the table never exceeds MaxJobs + that bound.
func (s *Scheduler) gcJobsLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if j := s.jobs[id]; excess > 0 && j.status.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// worker is one slot of the fixed pool: it drains the queue until Stop
// closes it, running one job at a time at JobWorkers-way parallelism.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job end to end.
func (s *Scheduler) runJob(j *job) {
	s.mu.Lock()
	s.stats.Queued--
	j.queueSpan.End()
	if j.canceled || s.stopped {
		s.finishLocked(j, nil, context.Canceled)
		s.mu.Unlock()
		s.logFinished(j)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	if j.span != nil {
		// The job runs on a scheduler-owned context, not the submitting
		// request's — re-attach the job span so solve-side StartSpan calls
		// land in the same trace.
		ctx = trace.ContextWithSpan(ctx, j.span)
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	if e := catalog.Lookup(j.req.Algo); e.Streams {
		j.trace = newTraceRecorder(s.metrics, e.Grid)
	}
	s.stats.Running++
	if s.stats.Running > s.stats.PeakRunning {
		s.stats.PeakRunning = s.stats.Running
	}
	inst, release, err := s.reg.Acquire(j.req.Instance) // recency touch; job already holds a pin
	s.mu.Unlock()
	if err != nil {
		// Unreachable while the submit-time pin is held; defensive.
		cancel()
		s.finish(j, nil, err)
		return
	}
	release()
	s.log.Info("job started", jobLogAttrs(j, "algo", j.req.Algo, "instance", j.req.Instance,
		"workers", s.cfg.JobWorkers)...)

	res, err := s.solve(ctx, inst, j.req, j.trace)
	cancel()
	s.finish(j, &res, err) // res is ignored on error
}

// logFinished emits the terminal job-lifecycle log line. Called after the
// job is terminal (its record is immutable), outside s.mu.
func (s *Scheduler) logFinished(j *job) {
	attrs := jobLogAttrs(j, "status", string(j.status),
		"duration", j.finished.Sub(j.started))
	if j.result != nil {
		attrs = append(attrs, "cover", len(j.result.Cover),
			"passes", j.result.Passes, "space_words", j.result.SpaceWords)
	}
	if j.err != nil {
		attrs = append(attrs, "err", j.err)
		s.log.Warn("job finished", attrs...)
		return
	}
	s.log.Info("job finished", attrs...)
}

// finish moves a job to its terminal state, releases its registry pin and
// updates stats. finishLocked is the variant for callers holding s.mu.
func (s *Scheduler) finish(j *job, res *SolveResult, err error) {
	s.mu.Lock()
	s.finishLocked(j, res, err)
	s.mu.Unlock()
	s.logFinished(j)
}

func (s *Scheduler) finishLocked(j *job, res *SolveResult, err error) {
	wasRunning := j.status == StatusRunning
	if wasRunning {
		s.stats.Running--
	}
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		s.stats.Completed++
		if res.SpaceWords > s.stats.PeakSpaceWords {
			s.stats.PeakSpaceWords = res.SpaceWords
		}
		// NoCache skips only the lookup; the fresh result still refreshes
		// the cache (the documented semantics of a forced recompute).
		if s.cfg.CacheEntries > 0 {
			s.cacheStoreLocked(j.key, res)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.err = err
		s.stats.Canceled++
	default:
		j.status = StatusFailed
		j.err = err
		s.stats.Failed++
	}
	if s.metrics != nil {
		s.metrics.completed.With(string(j.status)).Inc()
		if wasRunning {
			s.metrics.jobDuration.Observe(j.finished.Sub(j.started).Seconds())
		}
	}
	// Close out the job's spans; the trace commits to the flight recorder
	// here if the submitting HTTP request has already returned. Both Ends
	// are idempotent, so the canceled-while-queued path (queue span already
	// ended by runJob) is safe.
	j.queueSpan.End()
	j.span.SetAttr("status", string(j.status))
	j.span.End()
	j.release()
	close(j.done)
}

func (s *Scheduler) cacheStoreLocked(key string, res *SolveResult) {
	if _, ok := s.cache[key]; ok {
		return
	}
	if len(s.cacheFIFO) >= s.cfg.CacheEntries {
		delete(s.cache, s.cacheFIFO[0])
		s.cacheFIFO = s.cacheFIFO[1:]
	}
	s.cache[key] = res
	s.cacheFIFO = append(s.cacheFIFO, key)
}

// replayPlan returns the pass-replay plan for the instance, building it
// lazily on the first solve that consumes one and attaching it to the
// registry entry (which charges the plan's bytes to the memory budget and
// drops the plan if the instance is evicted). Returns nil — and the solve
// streams honestly — when the plan cannot be built. Concurrent first
// solves may each build a plan; the registry keeps exactly one and the
// losers serve their own copy for just their job.
func (s *Scheduler) replayPlan(ctx context.Context, inst *streamcover.Instance, hash string) *streamcover.ReplayPlan {
	_, sp := trace.StartSpan(ctx, "plan")
	defer sp.End()
	if p, ok := s.reg.Plan(hash); ok {
		plan, _ := p.(*streamcover.ReplayPlan)
		sp.SetBool("reused", true)
		return plan
	}
	plan, err := streamcover.BuildReplayPlan(inst)
	if err != nil {
		return nil
	}
	sp.SetBool("reused", false)
	sp.SetInt64("bytes", int64(plan.Bytes()))
	if !s.reg.AttachPlan(hash, plan, plan.Bytes()) {
		if p, ok := s.reg.Plan(hash); ok {
			// Lost a build race: use the attached winner.
			if attached, k := p.(*streamcover.ReplayPlan); k {
				return attached
			}
		}
		// Over budget: still worth using for this one job — the bytes are
		// transient (job-lifetime, like any solve scratch), not resident.
	}
	return plan
}

// solve runs one job through the catalog with the job context, the per-job
// worker budget, the job's pass-trace recorder (nil for the offline
// references) and the instance's replay plan, built only if consumed.
func (s *Scheduler) solve(ctx context.Context, inst *streamcover.Instance, req SolveRequest, tr *traceRecorder) (SolveResult, error) {
	workers := s.cfg.JobWorkers
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	ctx, sp := trace.StartSpan(ctx, "solve")
	defer sp.End()
	sp.SetAttr("algo", req.Algo)
	sp.SetInt("workers", workers)
	env := catalog.Env{Workers: workers}
	if tr != nil {
		// Each completed pass becomes one event on the solve span. A nil
		// recorder must stay an untyped-nil sink, or the drivers would see
		// a non-nil interface and trace into nothing.
		tr.span = sp
		env.Trace = tr
	}
	if !s.cfg.DisableReplay {
		hash := req.Instance
		env.Plan = func() *streamcover.ReplayPlan { return s.replayPlan(ctx, inst, hash) }
	}
	return catalog.Run(ctx, inst, req, env)
}

// Cancel requests cancellation of a job: queued jobs terminate without
// running, running jobs abort at the solver's next cancellation poll. It
// is a no-op on terminal jobs.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	j.canceled = true
	if j.cancel != nil {
		j.cancel()
	}
	return nil
}

// Job returns the snapshot of a job.
func (s *Scheduler) Job(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return j.snapshotLocked(), nil
}

// Handle is a stable subscription to one job: it holds direct references
// to the job record and its completion channel, so the job's terminal
// snapshot stays observable even after the MaxJobs GC forgets the record's
// ID. Waiters must use a Handle (or Wait, built on one) rather than
// re-resolving the ID around a blocking point — a busy scheduler can prune
// a just-finished job between "it completed" and "read its result", and an
// ID re-lookup would then misreport the finished job as unknown.
type Handle struct {
	s *Scheduler
	j *job
}

// Done returns the channel the scheduler closes when the job reaches a
// terminal status.
func (h *Handle) Done() <-chan struct{} { return h.j.done }

// Snapshot returns the job's current snapshot. After Done is closed it is
// the final, immutable state.
func (h *Handle) Snapshot() Job {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.j.snapshotLocked()
}

// Subscribe returns a stable Handle on the job, or ErrUnknownJob if the ID
// was never issued (or already pruned by the MaxJobs GC).
func (s *Scheduler) Subscribe(id string) (*Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return &Handle{s: s, j: j}, nil
}

// Wait blocks until the job reaches a terminal status (returning its final
// snapshot) or ctx is done (returning ctx.Err()).
func (s *Scheduler) Wait(ctx context.Context, id string) (Job, error) {
	h, err := s.Subscribe(id)
	if err != nil {
		return Job{}, err
	}
	select {
	case <-h.Done():
		return h.Snapshot(), nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// Stats returns the cumulative scheduler accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheSize = len(s.cache)
	st.Slots = s.cfg.Slots
	st.JobWorkers = s.cfg.JobWorkers
	st.QueueDepth = s.cfg.QueueDepth
	return st
}

// Stop shuts the scheduler down: no new submissions, queued jobs are
// canceled, running jobs' contexts are canceled, and Stop returns once all
// workers have exited. Idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	close(s.queue) // Submit holds s.mu for its send, so this cannot race
	for _, j := range s.jobs {
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// snapshotLocked copies the job into its wire form. Caller holds s.mu (or
// has exclusive access during construction).
func (j *job) snapshotLocked() Job {
	out := Job{
		ID:       j.id,
		Status:   j.status,
		Request:  j.req,
		CacheHit: j.cacheHit,
		Created:  j.created,
	}
	if j.result != nil {
		r := *j.result
		r.Cover = append([]int(nil), j.result.Cover...)
		out.Result = &r
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		out.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.Finished = &t
	}
	if j.trace != nil {
		out.Trace = j.trace.snapshot() // nil before the first pass completes
	}
	out.TraceID = j.traceID
	return out
}
