// Package client is the Go client for coverd, streamcover's solve service,
// and the home of the service's wire types (shared with the server so the
// two cannot drift).
//
// A Client talks to a coverd instance over its JSON HTTP API: upload
// instances (deduplicated server-side by content hash), submit solve jobs,
// poll or stream job status, cancel jobs, and read service stats. The
// determinism contract carries over the wire: for a fixed seed, a solve
// through coverd returns bit-identical cover, passes and space to the
// corresponding in-process streamcover.Solve* call.
//
//	c := client.New("http://localhost:8650")
//	up, _ := c.UploadInstance(ctx, inst)
//	job, _ := c.Solve(ctx, client.SolveRequest{Instance: up.Hash, Alpha: 3, Seed: 42})
//	fmt.Println(job.Result.Cover)
package client

import "time"

// SolveRequest is the body of POST /v1/solve: an instance named by content
// hash plus the full option surface of the public Solve* API. Zero-valued
// fields take the same defaults as the corresponding With* options —
// except Seed, which passes through verbatim (0 is a legal seed; an
// in-process call that omits WithSeed uses 1, so name the seed explicitly
// when cross-checking against a local solve).
type SolveRequest struct {
	// Instance is the content hash returned by POST /v1/instances.
	Instance string `json:"instance"`
	// Algo selects the solver: setcover (Algorithm 1 with the õpt-guess
	// grid; the default, also accepted as alg1), maxcover (sampled
	// streaming max k-coverage), greedy/exact (offline references),
	// progressive/storeall (streaming baselines). The server normalizes an
	// alias to the canonical name, and job snapshots report that name.
	Algo string `json:"algo,omitempty"`
	// Alpha, Epsilon, Seed, GreedySubsolver, SampleConstant and OptimumHint
	// mirror WithAlpha, WithEpsilon, WithSeed, WithGreedySubsolver,
	// WithSampleConstant and WithOptimumHint. Alpha must be >= 1 and
	// Epsilon in (0,1]; SampleConstant and OptimumHint must be >= 0.
	Alpha   int     `json:"alpha,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	// Order mirrors WithOrder: adversarial (the default), random-once
	// (also accepted as random) or random-each-pass.
	Order           string  `json:"order,omitempty"`
	GreedySubsolver bool    `json:"greedy_subsolver,omitempty"`
	SampleConstant  float64 `json:"sample_constant,omitempty"`
	OptimumHint     int     `json:"opt_hint,omitempty"`
	// K is the coverage budget (maxcover only; required there).
	K int `json:"k,omitempty"`
	// Lambda is the threshold decay (progressive only; default 2). It must
	// be 0 for the default, or greater than 1.
	Lambda float64 `json:"lambda,omitempty"`
	// Workers caps this job's guess-grid parallelism below the server's
	// per-job budget. It cannot change the result (the library's
	// determinism contract) and is excluded from the result-cache key.
	Workers int `json:"workers,omitempty"`
	// NoCache forces a fresh solve even when a cached result exists; the
	// fresh result still populates the cache.
	NoCache bool `json:"no_cache,omitempty"`
	// Wait makes POST /v1/solve block until the job finishes; if the
	// waiting client disconnects, the server cancels the job.
	Wait bool `json:"wait,omitempty"`
}

// SolveResult is the wire form of a finished solve, covering every Algo
// shape (setcover-style cover + accounting, maxcover's covered count).
type SolveResult struct {
	// Cover is the chosen set IDs, sorted.
	Cover []int `json:"cover"`
	// Covered is the number of covered universe elements (maxcover only;
	// a full cover covers n by definition).
	Covered int `json:"covered,omitempty"`
	// Guess is the winning õpt guess (setcover only).
	Guess int `json:"guess,omitempty"`
	// Passes and SpaceWords are the streaming accounting; 0 passes means an
	// offline reference solve.
	Passes     int `json:"passes"`
	SpaceWords int `json:"space_words"`
}

// JobStatus is the lifecycle state of a job: queued → running → one of
// done / failed / canceled.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// PassTrace is one pass of a solve's timeline: the paper's cost model
// (passes × space) as observed by the pass driver. It is the one wire form
// of a pass: coverd sends it only in Job.Trace, which grows while the job
// runs (a ?watch=1 stream re-emits the job snapshot as passes complete),
// and covercli -trace prints it for local and remote solves alike.
type PassTrace struct {
	// Pass is the 0-based pass index.
	Pass int `json:"pass"`
	// DurationSeconds is the wall time of the pass.
	DurationSeconds float64 `json:"duration_seconds"`
	// Items is the number of sets observed during the pass.
	Items int `json:"items"`
	// SpaceWords is the algorithm footprint at end of pass; PeakSpaceWords
	// the peak over the run so far.
	SpaceWords     int `json:"space_words"`
	PeakSpaceWords int `json:"peak_space_words"`
	// Live is the number of õpt guesses still running after the pass, or -1
	// when the algorithm has no guess grid.
	Live int `json:"live"`
	// Replayed reports that the pass was served from a recorded replay plan
	// rather than an honest re-stream.
	Replayed bool `json:"replayed,omitempty"`
}

// SolveTrace is the observability record of one solve: the per-pass
// timeline plus the grid-kernel body the solve dispatched to. It is
// recorded whether or not request tracing is on.
type SolveTrace struct {
	// Kernel is the bitset grid kernel body ("avx2", "scalar") the solve
	// dispatched to; empty for solvers that sweep no guess grid.
	Kernel string `json:"kernel,omitempty"`
	// Passes is the per-pass timeline, in pass order.
	Passes []PassTrace `json:"passes"`
}

// Job is a point-in-time snapshot of a solve job, as served by
// GET /v1/jobs/{id}.
type Job struct {
	ID       string       `json:"id"`
	Status   JobStatus    `json:"status"`
	Request  SolveRequest `json:"request"`
	Result   *SolveResult `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
	CacheHit bool         `json:"cache_hit,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	// Trace is the per-pass solve timeline, present once the job has begun
	// streaming passes (never for cache hits or offline reference solves).
	Trace *SolveTrace `json:"trace,omitempty"`
	// TraceID is the W3C trace identity of the request that submitted the
	// job (32 lowercase hex digits) — the key that ties this job record to
	// the server's access log, lifecycle logs and the recorded span tree
	// (GET /v1/traces/{id}). Empty when the server runs without tracing.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceSpan is one node of a recorded span tree: a timed operation with
// attributes and nested child spans. A solve's passes are not in the tree;
// they are the job's Trace.
type TraceSpan struct {
	SpanID string `json:"span_id"`
	// Parent is the parent span's ID; for the server's root span of a
	// client-propagated trace it names the client's span (which has no
	// record server-side).
	Parent          string         `json:"parent_span_id,omitempty"`
	Name            string         `json:"name"`
	Start           time.Time      `json:"start"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []TraceSpan    `json:"children,omitempty"`
}

// RecordedTrace is one completed request trace as retained by the server's
// flight recorder, served by GET /v1/traces/{id} and GET /debug/traces.
type RecordedTrace struct {
	TraceID string `json:"trace_id"`
	// Spans holds the trace's root spans with children nested (normally
	// one root: the server's per-request span).
	Spans []TraceSpan `json:"spans"`
	// DroppedSpans counts spans elided by the recorder's per-trace bound.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// TracesResponse is the body of GET /debug/traces.
type TracesResponse struct {
	Traces []RecordedTrace `json:"traces"`
}

// DebugBundle is the body of GET /debug/bundle: everything needed for a
// postmortem in one JSON blob.
type DebugBundle struct {
	Stats StatsResponse `json:"stats"`
	// Metrics is the Prometheus text exposition at bundle time (empty when
	// the server runs without metrics).
	Metrics string `json:"metrics,omitempty"`
	// Traces is the flight recorder's retained traces, newest first.
	Traces []RecordedTrace `json:"traces"`
}

// UploadResponse is the body of a successful POST /v1/instances.
type UploadResponse struct {
	// Hash is the instance's content identity; solve requests name it.
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Added is false when the upload deduplicated against a resident twin.
	Added bool  `json:"added"`
	Bytes int64 `json:"bytes"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /v1/healthz. Status is "ok" when the
// service is ready, "degraded" when it is alive but likely to shed load
// (HTTP 503) — Reasons then names the saturated resources so a balancer
// can route around the instance before requests start failing with 429/507.
type HealthResponse struct {
	Status        string   `json:"status"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Reasons       []string `json:"reasons,omitempty"`
}

// SchedulerStats is the scheduler's cumulative accounting.
type SchedulerStats struct {
	Submitted   uint64 `json:"submitted"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheSize   int    `json:"cache_size"`
	Running     int    `json:"running"`
	Queued      int    `json:"queued"`
	PeakRunning int    `json:"peak_running"`
	// PeakSpaceWords is the largest SpaceWords any completed job reported —
	// the serving-layer view of the paper's space accounting.
	PeakSpaceWords int `json:"peak_space_words"`
	Slots          int `json:"slots"`
	JobWorkers     int `json:"job_workers"`
	QueueDepth     int `json:"queue_depth"`
}

// RegistryStats summarizes the resident-instance store. ResidentBytes is
// what the budget bounds; it splits into HeapBytes (decoded instances
// owned by the Go heap), MappedBytes (SCB2 files mmap'd zero-copy,
// resident in page cache rather than heap), and PlanBytes (pass-replay
// plans built lazily on first solve — prebuilt per-set run lists served to
// every later pass — charged to the budget like instance bytes and dropped
// with their instance on eviction).
type RegistryStats struct {
	Instances     int    `json:"instances"`
	ResidentBytes int64  `json:"resident_bytes"`
	HeapBytes     int64  `json:"heap_bytes"`
	MappedBytes   int64  `json:"mapped_bytes"`
	PlanBytes     int64  `json:"plan_bytes"`
	BudgetBytes   int64  `json:"budget_bytes"`
	Evictions     uint64 `json:"evictions"`
	// DedupHits counts uploads that deduplicated against a resident twin.
	DedupHits uint64 `json:"dedup_hits,omitempty"`
	// Pinned is the number of instances currently pinned by running solves.
	Pinned int `json:"pinned,omitempty"`
}

// InstanceInfo describes one resident instance.
type InstanceInfo struct {
	Hash  string `json:"hash"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Bytes int64  `json:"bytes"`
	// PlanBytes is the size of the attached pass-replay plan, 0 when none
	// has been built yet (plans are built lazily on first solve).
	PlanBytes int64 `json:"plan_bytes,omitempty"`
	// Backing is "heap" or "mapped" (an mmap'd SCB2 file).
	Backing string `json:"backing"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Scheduler SchedulerStats `json:"scheduler"`
	Registry  RegistryStats  `json:"registry"`
	Instances []InstanceInfo `json:"instances"`
}
