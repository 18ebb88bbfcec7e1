package service

import (
	"streamcover/internal/obs"
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
			"Wall time of individual stream passes across all solves (its _count counts the passes).",
			obs.PassBuckets),
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

// passFeed is a streaming job's pass sink and pass record: the embedded
// stream.Trace collects every sample for the job's snapshots (and the
// ?watch=1 stream), and the scheduler's pass-duration histogram and
// replayed-pass counter observe each sample live. The job's driver
// goroutine feeds it while snapshots read the record from any request.
type passFeed struct {
	stream.Trace
	m *schedMetrics // nil when the scheduler has no metrics registry
}

// TracePass implements stream.TraceSink.
func (f *passFeed) TracePass(s stream.PassSample) {
	f.Trace.TracePass(s)
	if f.m != nil {
		f.m.passDuration.Observe(s.Duration.Seconds())
		if s.Replayed {
			f.m.passesReplayed.Inc()
		}
	}
}
