// Package streamcover is a Go implementation of multi-pass streaming set
// cover and maximum coverage, reproducing "Tight Space-Approximation
// Tradeoff for the Multi-Pass Streaming Set Cover Problem" (Sepehr Assadi,
// PODS 2017).
//
// The headline algorithm is Assadi's refinement of Har-Peled et al.'s
// streaming set cover (Algorithm 1 of the paper): for a chosen α ≥ 1 it
// computes an (α+ε)-approximate set cover in 2α+1 passes over the set
// stream while storing Õ(m·n^{1/α}/ε² + n/ε) words — provably the best
// possible space for any α-approximation, by the paper's matching
// Ω̃(m·n^{1/α}) lower bound.
//
// # Quick start
//
//	inst := streamcover.GenerateUniform(1, 10_000, 500, 50, 400)
//	res, err := streamcover.SolveSetCover(inst, streamcover.WithAlpha(3))
//	if err != nil { ... }
//	fmt.Println(res.Cover, res.Passes, res.SpaceWords)
//
// # Parallelism and determinism
//
// The õpt-guessing wrapper runs a (1+ε)-geometric grid of Algorithm 1
// instances over the same stream passes; the guesses are logically
// independent, so the solver fans them out to a worker pool (one stream
// read per pass, items broadcast read-only to the per-guess runs, offline
// sub-solves concurrent across guesses). WithParallelism(p) selects the
// worker count — the default is GOMAXPROCS, and p = 1 runs the whole grid
// inline on the caller's goroutine.
//
// Determinism contract: for a fixed seed, results are bit-identical at
// every parallelism level — the same cover, winning guess, pass count and
// space accounting. Every per-guess run owns an RNG split deterministically
// from the root seed, observes the full stream in arrival order, and shares
// no mutable state with its siblings, so the worker count changes wall-clock
// time and nothing else.
//
// The package also exposes streaming maximum k-coverage (SolveMaxCoverage),
// offline reference solvers (GreedySetCover, ExactSetCover), workload
// generators, instance (de)serialization, and generators for the paper's
// hard distributions D_SC and D_MC with ground truth (GenerateHardSetCover,
// GenerateHardMaxCoverage) — useful for benchmarking any streaming set
// cover implementation against the information-theoretic limits.
//
// Internals follow the paper closely; see DESIGN.md for the construction-
// by-construction mapping and EXPERIMENTS.md for the reproduced results.
package streamcover

import (
	"context"
	"fmt"
	"io"

	"streamcover/internal/core"
	"streamcover/internal/maxcover"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// Instance is a set cover / maximum coverage instance: m subsets of the
// universe [0, N), stored in a flat CSR arena (one []int32 element array
// plus offsets — see internal/setsystem's package docs for the layout).
// Construct with NewInstance or an InstanceBuilder; read sets through
// inst.Set(i), which returns a zero-copy view. Sets must be sorted and
// duplicate-free (call Normalize after assembling from unnormalized data).
type Instance = setsystem.Instance

// InstanceBuilder assembles an Instance set by set into a single arena.
type InstanceBuilder = setsystem.Builder

// NewInstance builds an instance over [0, n) from explicit sets, copying
// the elements into a fresh arena.
func NewInstance(n int, sets [][]int) *Instance { return setsystem.FromSets(n, sets) }

// NewInstanceBuilder returns a builder for incremental instance assembly
// over the universe [0, n).
func NewInstanceBuilder(n int) *InstanceBuilder { return setsystem.NewBuilder(n) }

// Order selects the stream arrival order.
type Order = stream.Order

// Arrival orders.
const (
	// Adversarial streams sets in instance order.
	Adversarial = stream.Adversarial
	// RandomOnce applies one random permutation, fixed across passes (the
	// paper's random arrival model).
	RandomOnce = stream.RandomOnce
	// RandomEachPass reshuffles before every pass.
	RandomEachPass = stream.RandomEachPass
)

// options collects solver settings; modified via Option values.
type options struct {
	alpha     int
	eps       float64
	order     Order
	seed      uint64
	greedySub bool
	sampleC   float64
	optHint   int
	workers   int
	ctx       context.Context
	plan      *ReplayPlan
	trace     TraceSink
}

func defaultOptions() options {
	return options{alpha: 2, eps: 0.5, order: Adversarial, seed: 1}
}

// Option configures SolveSetCover and SolveMaxCoverage.
type Option func(*options)

// WithAlpha sets the approximation parameter α ≥ 1: the solver runs 2α+1
// passes and stores Õ(m·n^{1/α}) words for an (α+ε)-approximation.
func WithAlpha(alpha int) Option { return func(o *options) { o.alpha = alpha } }

// WithEpsilon sets ε ∈ (0,1] (default 0.5): approximation slack and
// õpt-guess grid resolution.
func WithEpsilon(eps float64) Option { return func(o *options) { o.eps = eps } }

// WithOrder sets the arrival order (default Adversarial).
func WithOrder(order Order) Option { return func(o *options) { o.order = order } }

// WithSeed makes the run deterministic for a given seed (default 1).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithGreedySubsolver switches the per-iteration offline sub-solve from
// exact (the paper's choice, needed for the (α+ε) guarantee) to greedy
// (faster, O(α·log n)-approximate).
func WithGreedySubsolver() Option { return func(o *options) { o.greedySub = true } }

// WithSampleConstant overrides the element-sampling constant (the paper's
// worst-case value is 16; smaller values use less space and remain safe on
// typical inputs — see experiment E10).
func WithSampleConstant(c float64) Option { return func(o *options) { o.sampleC = c } }

// WithOptimumHint fixes the õpt guess to k instead of running the full
// (1+ε)-geometric guess grid in parallel. Theorem 2's space bound is stated
// for a given õpt; the grid costs an extra Õ(1/ε) factor, which dominates
// at small n. If the hint is below the true optimum the solve fails with
// ErrInfeasible — retry with a larger hint (or without one).
func WithOptimumHint(k int) Option { return func(o *options) { o.optHint = k } }

// WithContext attaches a cancellation context to the solve: the drivers
// poll it at pass boundaries and within passes, and the solve returns
// ctx.Err() once it is cancelled or its deadline passes. Cancellation does
// not perturb determinism — a run either completes with the usual
// bit-identical result or aborts with the context's error. The default
// (nil) never cancels. This is what lets a serving layer (coverd) abort an
// in-flight job when the requesting client goes away.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

// WithParallelism sets the worker-pool size used to fan the per-guess runs
// out across cores (and, in SolveMaxCoverage's greedy sub-solve, the
// per-round candidate gain scan): p <= 0 selects GOMAXPROCS (the default),
// p == 1 runs the guess grid inline on the caller's goroutine.
// For a fixed seed the result — cover, guess, passes, space accounting — is
// bit-identical at every p; parallelism changes only wall-clock time. See
// the package documentation for the determinism contract.
func WithParallelism(p int) Option { return func(o *options) { o.workers = p } }

// ReplayPlan is a pass-replay recording of an instance: every set's
// elements (aliased into the instance's arena) plus its prebuilt word-mask
// run list, built once by BuildReplayPlan and served to every pass of a
// solve via WithReplayPlan. Replay is bit-identical to an honest solve
// under every arrival order and seed — the instance stream still draws the
// arrival permutation; only the per-item payload comes from the plan — and
// is a serving optimization only: plan bytes are never charged to the
// solve's reported space (coverd's registry accounts them against its
// memory budget instead). A plan is immutable and safe to share across
// concurrent solves of the same instance.
type ReplayPlan struct {
	plan *stream.Plan
}

// BuildReplayPlan records inst once and returns a plan usable by any
// number of subsequent solves over the same instance.
func BuildReplayPlan(inst *Instance) (*ReplayPlan, error) {
	p, err := stream.BuildPlan(stream.FromInstance(inst, Adversarial, nil), 0)
	if err != nil {
		return nil, err
	}
	return &ReplayPlan{plan: p}, nil
}

// Bytes returns the accounted size of the plan in bytes (run lists plus
// per-set table overhead; the elements alias the instance's own arena and
// are charged to the instance).
func (p *ReplayPlan) Bytes() int64 { return p.plan.Bytes() }

// WithReplayPlan serves every pass's item payloads from a prebuilt plan
// instead of re-deriving them (see ReplayPlan). The plan must have been
// built from the same instance passed to SolveSetCover; a mismatched plan
// fails the solve. nil is allowed and means no replay.
func WithReplayPlan(p *ReplayPlan) Option { return func(o *options) { o.plan = p } }

// PassSample is one pass of a traced solve: index, wall time, items
// observed, space at end of pass and peak so far, live guesses (-1 when the
// algorithm does not expose a guess grid), and whether the pass was served
// from a replay plan.
type PassSample = stream.PassSample

// TraceSink receives one PassSample per completed pass of a traced solve.
type TraceSink = stream.TraceSink

// PassTrace is the basic TraceSink: it collects every sample in order and
// is safe to read concurrently with the solve.
type PassTrace = stream.Trace

// WithPassTrace streams one PassSample per completed pass into sink —
// the paper's cost model (passes × space) made observable. Sampling
// happens only at pass boundaries, so tracing is O(passes) and never
// perturbs results: the cover, accounting, and RNG discipline are
// bit-identical with and without a sink. nil disables tracing (the
// default), which also skips the per-pass wall-clock reads.
func WithPassTrace(sink TraceSink) Option { return func(o *options) { o.trace = sink } }

// SetCoverResult reports a streaming set cover run.
type SetCoverResult struct {
	// Cover is the chosen set indices, sorted, covering the universe.
	Cover []int
	// Guess is the õpt guess that produced the winning cover.
	Guess int
	// Passes is the number of stream passes used.
	Passes int
	// SpaceWords is the peak working-set size in words (one stored set or
	// element ID = one word; the uncovered-element bitmaps count n words).
	SpaceWords int
}

// SolveSetCover runs the paper's Algorithm 1 (with the õpt guessing
// wrapper) over the instance as a multi-pass stream. It returns
// ErrInfeasible if the sets cannot cover the universe.
func SolveSetCover(inst *Instance, opts ...Option) (SetCoverResult, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	cfg := core.Config{Alpha: o.alpha, Epsilon: o.eps, SampleC: o.sampleC, Workers: o.workers, Context: o.ctx, Trace: o.trace}
	if o.plan != nil {
		cfg.Plan = o.plan.plan
	}
	if o.greedySub {
		cfg.Subsolver = core.SubsolverGreedy
	}
	if o.optHint > 0 {
		cfg.OptGuesses = []int{o.optHint}
	}
	res, acc, err := core.Solve(inst, o.order, cfg, rng.New(o.seed))
	if err != nil {
		return SetCoverResult{}, err
	}
	return SetCoverResult{
		Cover:      res.Cover,
		Guess:      res.Guess,
		Passes:     acc.Passes,
		SpaceWords: acc.PeakSpace,
	}, nil
}

// MaxCoverageResult reports a streaming maximum coverage run.
type MaxCoverageResult struct {
	// Chosen is the selected set indices (at most k), sorted.
	Chosen []int
	// Covered is the number of universe elements the chosen sets cover.
	Covered int
	// Passes and SpaceWords account the run as in SetCoverResult.
	Passes     int
	SpaceWords int
}

// SolveMaxCoverage runs the element-sampling (1−ε)-approximate streaming
// maximum k-coverage algorithm (single pass). The sampled sub-instance is
// solved exactly by default, which is exponential in k in the worst case;
// pass WithGreedySubsolver for k beyond ~3 (costing the usual (1−1/e)
// greedy factor on the sample).
func SolveMaxCoverage(inst *Instance, k int, opts ...Option) (MaxCoverageResult, error) {
	o := defaultOptions()
	o.eps = 0.1
	for _, opt := range opts {
		opt(&o)
	}
	r := rng.New(o.seed)
	alg := maxcover.NewSampledKCover(inst.N, inst.M(), maxcover.SampledConfig{
		K: k, Eps: o.eps, Exact: !o.greedySub, SampleC: o.sampleC, Workers: o.workers,
		Context: o.ctx,
	}, r.Split("sample"))
	var orderRNG *rng.RNG
	if o.order != Adversarial {
		orderRNG = r.Split("order")
	}
	s := stream.FromInstance(inst, o.order, orderRNG)
	ctx := o.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	acc, err := stream.RunTraced(ctx, s, alg, 2, o.trace)
	if err != nil {
		return MaxCoverageResult{}, err
	}
	chosen, aerr := alg.Result()
	if aerr != nil {
		return MaxCoverageResult{}, aerr
	}
	return MaxCoverageResult{
		Chosen:     chosen,
		Covered:    inst.CoverageOf(chosen),
		Passes:     acc.Passes,
		SpaceWords: acc.PeakSpace,
	}, nil
}

// ErrInfeasible is returned when no set cover exists.
var ErrInfeasible = offline.ErrInfeasible

// GreedySetCover is the offline greedy (ln n)-approximation, for reference
// and verification.
func GreedySetCover(inst *Instance) ([]int, error) {
	return offline.Greedy(inst)
}

// GreedySetCoverContext is GreedySetCover with cooperative cancellation:
// the selection loop polls ctx periodically and returns ctx.Err() once it
// is done. A nil ctx never cancels.
func GreedySetCoverContext(ctx context.Context, inst *Instance) ([]int, error) {
	return offline.GreedyContext(ctx, inst)
}

// ExactSetCover computes an optimal cover by branch-and-bound. Exponential
// in the worst case; intended for small instances and verification.
func ExactSetCover(inst *Instance) ([]int, error) {
	return offline.Exact(inst, offline.ExactConfig{})
}

// ExactSetCoverContext is ExactSetCover with cooperative cancellation: the
// branch-and-bound polls ctx every few thousand search nodes and returns
// ctx.Err() once it is done — what lets a serving layer abort a
// worst-case-exponential exact job instead of blocking on it. A nil ctx
// never cancels.
func ExactSetCoverContext(ctx context.Context, inst *Instance) ([]int, error) {
	return offline.Exact(inst, offline.ExactConfig{Context: ctx})
}

// GreedyMaxCoverage is the offline greedy (1−1/e)-approximate maximum
// k-coverage: the chosen indices and their coverage.
func GreedyMaxCoverage(inst *Instance, k int) ([]int, int) {
	return offline.MaxCoverGreedy(inst, k)
}

// GenerateUniform returns m uniformly random sets over [0, n) with sizes in
// [minSize, maxSize].
func GenerateUniform(seed uint64, n, m, minSize, maxSize int) *Instance {
	return setsystem.Uniform(rng.New(seed), n, m, minSize, maxSize)
}

// GeneratePlanted returns an instance with a planted optimal cover of
// optSize sets (returned as the second value) among decoys.
func GeneratePlanted(seed uint64, n, m, optSize int) (*Instance, []int) {
	return setsystem.PlantedCover(rng.New(seed), n, m, optSize, 0.6)
}

// GenerateZipf returns an instance with Zipf-distributed set sizes and
// skewed element popularity (document/topic-style workloads).
func GenerateZipf(seed uint64, n, m int, exponent float64, maxSize int) *Instance {
	return setsystem.Zipf(rng.New(seed), n, m, exponent, maxSize)
}

// GenerateClustered returns an instance whose sets concentrate in topical
// clusters of the universe.
func GenerateClustered(seed uint64, n, m, clusters, setSize int) *Instance {
	return setsystem.Clustered(rng.New(seed), n, m, clusters, setSize, 0.1)
}

// ReadInstance decodes an instance from any on-disk codec, sniffing the
// leading magic bytes: the text format ("setcover n m" header, then one
// "id e1 e2 ..." line per set, listed in id order), the SCB1 binary
// format (magic + header + per-set lengths + varint-delta element
// payload), or the SCB2 mmap-native format (decoded onto the heap here;
// use MapInstanceFile for the zero-copy open).
func ReadInstance(r io.Reader) (*Instance, error) { return setsystem.ReadAuto(r) }

// WriteInstance encodes an instance in the text format.
func WriteInstance(w io.Writer, inst *Instance) error { return setsystem.Write(w, inst) }

// WriteInstanceBinary encodes an instance in the compact binary format
// (delta-varint element payload, typically several times smaller than the
// text format and decodable with no per-set allocations). The instance
// must be normalized. Multi-pass streaming consumers should prefer this
// format: cmd/covercli streams either format straight from disk.
func WriteInstanceBinary(w io.Writer, inst *Instance) error { return setsystem.WriteBinary(w, inst) }

// WriteInstanceSCB2 encodes an instance in the SCB2 mmap-native format:
// fixed-width little-endian CSR sections, 64-byte aligned, so the file can
// back an Instance directly through an mmap view with no decode pass. The
// instance must be normalized. Larger on disk than the SCB1 varint codec,
// but opening is O(pages touched) instead of O(decode).
func WriteInstanceSCB2(w io.Writer, inst *Instance) error { return setsystem.WriteSCB2(w, inst) }

// MapInstanceFile opens an SCB2 file as an instance backed directly by the
// mapped file pages (zero-copy; falls back to a heap decode on hosts
// without mmap support — check inst.Backing()). The caller must Unmap the
// instance when done with it.
func MapInstanceFile(path string) (*Instance, error) { return setsystem.Map(path) }

// Stats summarizes an instance.
type Stats = setsystem.Stats

// ComputeStats scans the instance once and returns summary statistics.
func ComputeStats(inst *Instance) Stats { return setsystem.ComputeStats(inst) }

// Validate checks instance invariants and reports the first violation.
func Validate(inst *Instance) error { return inst.Validate() }

// Normalize sorts every set and removes duplicate elements in place.
func Normalize(inst *Instance) { inst.SortSets() }

// String renders a one-line summary of a result.
func (r SetCoverResult) String() string {
	return fmt.Sprintf("cover=%d sets (guess %d), %d passes, %d words",
		len(r.Cover), r.Guess, r.Passes, r.SpaceWords)
}

// String renders a one-line summary of a result.
func (r MaxCoverageResult) String() string {
	return fmt.Sprintf("chose %d sets covering %d elements, %d passes, %d words",
		len(r.Chosen), r.Covered, r.Passes, r.SpaceWords)
}

// ProjectInstance returns the instance induced on a sub-universe: elements
// (sorted, unique) become [0, len(elements)) and every set is intersected
// with them. This is the element-sampling view used throughout the paper.
func ProjectInstance(inst *Instance, elements []int) *Instance {
	return setsystem.Project(inst, elements)
}

// MergeInstances concatenates set collections over a common universe n.
func MergeInstances(n int, ins ...*Instance) *Instance {
	return setsystem.Merge(n, ins...)
}
