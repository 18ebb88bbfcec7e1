package service

import (
	"sync"

	"streamcover/client"
	"streamcover/internal/bitset"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/stream"
)

// schedMetrics is the scheduler's instrument set, registered once per obs
// registry. Counters and histograms are updated inline at job transitions
// and pass boundaries (all lock-free atomic adds); point-in-time state
// (queue depth, running jobs) is exposed pull-style from the scheduler's
// own stats ledger, so instrumentation never adds bookkeeping to the
// scheduling paths.
type schedMetrics struct {
	submitted      *obs.Counter
	completed      *obs.CounterVec // status: done / failed / canceled
	rejected       *obs.CounterVec // reason: queue_full / stopped
	jobDuration    *obs.Histogram
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	passDuration   *obs.Histogram
	passesTotal    *obs.Counter
	passesReplayed *obs.Counter
}

func newSchedMetrics(r *obs.Registry, s *Scheduler) *schedMetrics {
	m := &schedMetrics{
		submitted: r.Counter("coverd_jobs_submitted_total",
			"Solve jobs admitted (including cache hits)."),
		completed: r.CounterVec("coverd_jobs_completed_total",
			"Jobs reaching a terminal state, by final status.", "status"),
		rejected: r.CounterVec("coverd_jobs_rejected_total",
			"Submissions rejected at admission, by reason.", "reason"),
		jobDuration: r.Histogram("coverd_job_duration_seconds",
			"Wall time of executed jobs, start to terminal state (cache hits excluded).",
			obs.DefBuckets),
		cacheHits: r.Counter("coverd_result_cache_hits_total",
			"Submissions answered from the result cache."),
		cacheMisses: r.Counter("coverd_result_cache_misses_total",
			"Cache-eligible submissions that had to solve."),
		passDuration: r.Histogram("coverd_solve_pass_duration_seconds",
			"Wall time of individual stream passes across all solves.",
			obs.PassBuckets),
		passesTotal: r.Counter("coverd_solve_passes_total",
			"Stream passes completed across all solves."),
		passesReplayed: r.Counter("coverd_solve_passes_replayed_total",
			"Stream passes served from a recorded replay plan."),
	}
	r.GaugeFunc("coverd_jobs_running",
		"Jobs currently executing in worker slots.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.stats.Running)
		})
	r.GaugeFunc("coverd_jobs_queued",
		"Jobs admitted and waiting for a worker slot.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.stats.Queued)
		})
	return m
}

// traceRecorder is the scheduler's per-job stream.TraceSink: it converts
// driver pass samples to the wire form for job snapshots (and the ?watch=1
// stream) and feeds the pass-duration aggregates live, as passes complete.
// One recorder belongs to one job; TracePass is called from the job's
// driver goroutine while snapshot may run concurrently from any request.
type traceRecorder struct {
	m      *schedMetrics // nil when the scheduler has no metrics registry
	kernel string
	span   *trace.Span // solve span pass events land on; nil when untraced

	mu     sync.Mutex
	passes []client.PassTrace
}

// newTraceRecorder returns a recorder for one streaming job. gridKernel
// selects whether the dispatched bitset grid-kernel body is recorded —
// true only for solves that sweep the guess grid (setcover).
func newTraceRecorder(m *schedMetrics, gridKernel bool) *traceRecorder {
	t := &traceRecorder{m: m}
	if gridKernel {
		t.kernel = bitset.GridKernel()
	}
	return t
}

// TracePass implements stream.TraceSink.
func (t *traceRecorder) TracePass(s stream.PassSample) {
	// Recording() gates the attr assembly so untraced solves stay
	// allocation-free here (the events would be dropped anyway).
	if t.span.Recording() {
		t.span.AddEvent("pass",
			trace.Int("pass", s.Pass),
			trace.Float64("duration_seconds", s.Duration.Seconds()),
			trace.Int("items", s.Items),
			trace.Int("space_words", s.SpaceWords),
			trace.Bool("replayed", s.Replayed))
	}
	if t.m != nil {
		t.m.passDuration.Observe(s.Duration.Seconds())
		t.m.passesTotal.Inc()
		if s.Replayed {
			t.m.passesReplayed.Inc()
		}
	}
	t.mu.Lock()
	t.passes = append(t.passes, client.PassTrace{
		Pass:            s.Pass,
		DurationSeconds: s.Duration.Seconds(),
		Items:           s.Items,
		SpaceWords:      s.SpaceWords,
		PeakSpaceWords:  s.PeakSpace,
		Live:            s.Live,
		Replayed:        s.Replayed,
	})
	t.mu.Unlock()
}

// snapshot returns the wire form of the trace so far, or nil before the
// first pass completes.
func (t *traceRecorder) snapshot() *client.SolveTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.passes) == 0 {
		return nil
	}
	return &client.SolveTrace{
		Kernel: t.kernel,
		Passes: append([]client.PassTrace(nil), t.passes...),
	}
}
