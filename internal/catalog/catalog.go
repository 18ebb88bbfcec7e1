// Package catalog is the one table of solvers behind covercli and coverd.
// Each entry names a solver, fills in and range-checks its parameters,
// says whether it streams passes and whether it sweeps the õpt-guess grid,
// renders the one-line summary covercli prints, and runs the solve.
//
// Callers use the table through Normalize, Key, Run and Entry.Trace.
// coverd's scheduler normalizes and keys every request at admission and runs
// it through Run; covercli normalizes its flags into the same request and
// either calls Run or sends the request to coverd. Both turn a solve's
// recorded passes into the wire trace with Entry.Trace. A request therefore
// means the same thing on both sides, and a served result equals a local
// one by construction. Adding a solver is adding an entry here.
package catalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/baselines"
	"streamcover/internal/bitset"
	"streamcover/internal/rng"
	"streamcover/internal/stream"
)

// Request and Result are the wire types: a catalog solve is exactly what
// POST /v1/solve describes.
type (
	Request = client.SolveRequest
	Result  = client.SolveResult
)

// SetCover is the canonical name of the paper's Algorithm 1, the table's
// default entry. covercli names it to pick its disk-resident file path.
const SetCover = "setcover"

// Entry is one solver's row of the table.
type Entry struct {
	// Name is the canonical algo name; Alias is an accepted synonym.
	Name, Alias string
	// Streams reports that the solver runs stream passes and so emits a
	// per-pass trace. The offline references do not stream.
	Streams bool
	// Grid reports that the solver sweeps the õpt-guess grid, so its trace
	// records the dispatched grid-kernel body.
	Grid bool

	// Summary renders the one-line result covercli prints for a normalized
	// request.
	Summary func(Request, Result) string

	epsilon float64 // default ε
	lambda  float64 // default λ; 0 for solvers without a threshold decay
	minK    int     // smallest accepted coverage budget k
	run     func(context.Context, *streamcover.Instance, Request, Env) (Result, error)
}

// table is the solver catalog; the first entry is the default algo.
var table = []Entry{
	{
		Name: SetCover, Alias: "alg1", Streams: true, Grid: true, epsilon: 0.5,
		Summary: func(r Request, res Result) string {
			return fmt.Sprintf("alg1(α=%d): %s", r.Alpha, streamcover.SetCoverResult{
				Cover: res.Cover, Guess: res.Guess, Passes: res.Passes, SpaceWords: res.SpaceWords})
		},
		run: func(ctx context.Context, inst *streamcover.Instance, r Request, env Env) (Result, error) {
			// An uncoverable instance fails every guess, but only after the
			// grid's passes and sub-solves, whose cost grows with n while
			// the upload can be a few bytes. The O(Σ|S|) check settles it
			// before the first pass with the error the solve would return.
			if !inst.Coverable() {
				return Result{}, streamcover.ErrInfeasible
			}
			opts := append(solveOptions(ctx, r, env),
				streamcover.WithAlpha(r.Alpha), streamcover.WithOptimumHint(r.OptimumHint))
			if env.Plan != nil {
				opts = append(opts, streamcover.WithReplayPlan(env.Plan()))
			}
			res, err := streamcover.SolveSetCover(inst, opts...)
			return Result{Cover: res.Cover, Guess: res.Guess, Passes: res.Passes, SpaceWords: res.SpaceWords}, err
		},
	},
	{
		Name: "maxcover", Streams: true, epsilon: 0.1, minK: 1,
		Summary: func(r Request, res Result) string {
			return fmt.Sprintf("maxcover(k=%d): %s", r.K, streamcover.MaxCoverageResult{
				Chosen: res.Cover, Covered: res.Covered, Passes: res.Passes, SpaceWords: res.SpaceWords})
		},
		run: func(ctx context.Context, inst *streamcover.Instance, r Request, env Env) (Result, error) {
			res, err := streamcover.SolveMaxCoverage(inst, r.K, solveOptions(ctx, r, env)...)
			return Result{Cover: res.Chosen, Covered: res.Covered, Passes: res.Passes, SpaceWords: res.SpaceWords}, err
		},
	},
	offline("greedy", "offline greedy: cover=%d sets", streamcover.GreedySetCoverContext),
	offline("exact", "offline exact: cover=%d sets (optimal)", streamcover.ExactSetCoverContext),
	{
		Name: "progressive", Streams: true, epsilon: 0.5, lambda: 2,
		Summary: func(r Request, res Result) string {
			return fmt.Sprintf("progressive(λ=%g): %s", r.Lambda, passLine(res))
		},
		run: func(ctx context.Context, inst *streamcover.Instance, r Request, env Env) (Result, error) {
			pg := baselines.NewProgressiveGreedy(inst.N, r.Lambda)
			return runBaseline(ctx, inst, r, env, pg, pg.MaxPasses())
		},
	},
	{
		Name: "storeall", Streams: true, epsilon: 0.5,
		Summary: func(_ Request, res Result) string { return "storeall: " + passLine(res) },
		run: func(ctx context.Context, inst *streamcover.Instance, r Request, env Env) (Result, error) {
			return runBaseline(ctx, inst, r, env, baselines.NewStoreAllGreedy(inst.N), 2)
		},
	},
}

// order is one row of the arrival-order vocabulary, orders; the first
// row is the default.
type order struct {
	name, alias string
	stream      streamcover.Order
}

var orders = []order{
	{"adversarial", "", streamcover.Adversarial},
	{"random-once", "random", streamcover.RandomOnce},
	{"random-each-pass", "", streamcover.RandomEachPass},
}

// row is what the algo and order tables share: a canonical name and an
// accepted alias ("" for none).
type row interface{ vocab() (name, alias string) }

func (e Entry) vocab() (string, string) { return e.Name, e.Alias }
func (o order) vocab() (string, string) { return o.name, o.alias }

// find returns the index of the row a name selects: a canonical name, an
// alias, or "" for the first (default) row.
func find[R row](rows []R, name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, r := range rows {
		if n, a := r.vocab(); name == n || name == a {
			return i, true
		}
	}
	return 0, false
}

// Algos and Orders are the canonical algo and order names in table order;
// AlgoChoices and OrderChoices add the aliases, as usage and error text
// print them.
var (
	Algos        = canonical(table)
	Orders       = canonical(orders)
	AlgoChoices  = choices(table)
	OrderChoices = choices(orders)
)

func canonical[R row](rows []R) []string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i], _ = r.vocab()
	}
	return names
}

func choices[R row](rows []R) string {
	s := strings.Join(canonical(rows), ", ")
	for _, r := range rows {
		if n, a := r.vocab(); a != "" {
			s += fmt.Sprintf(", or %s as an alias for %s", a, n)
		}
	}
	return s
}

// Lookup returns the entry an algo name selects — a canonical name, an
// alias, or "" for the default entry — or nil for an unknown name.
func Lookup(algo string) *Entry {
	if i, ok := find(table, algo); ok {
		return &table[i]
	}
	return nil
}

// StreamOrder maps a normalized order name to the stream order.
func StreamOrder(name string) streamcover.Order {
	i, _ := find(orders, name)
	return orders[i].stream
}

// Normalize resolves a request's algo and order to their canonical names,
// fills in the entry's parameter defaults and range-checks every
// parameter. The result is the request every later step sees: its fields
// define the cache key, and job snapshots report them. Seed passes through
// verbatim — 0 is a legal seed, and rewriting it would make {"seed":0}
// solve differently from an in-process WithSeed(0). Normalize is
// idempotent, and any error it returns is the caller's bad request.
func Normalize(r Request) (Request, error) {
	e := Lookup(r.Algo)
	if e == nil {
		return r, fmt.Errorf("unknown algo %q (valid: %s)", r.Algo, AlgoChoices)
	}
	o, ok := find(orders, r.Order)
	if !ok {
		return r, fmt.Errorf("unknown order %q (valid: %s)", r.Order, OrderChoices)
	}
	r.Algo, r.Order = e.Name, orders[o].name
	if r.Alpha == 0 {
		r.Alpha = 2
	}
	if r.Epsilon == 0 {
		r.Epsilon = e.epsilon
	}
	if r.Lambda == 0 {
		r.Lambda = e.lambda
	}
	// The comparisons are written so that NaN fails them.
	switch {
	case r.Alpha < 1:
		return r, fmt.Errorf("alpha %d out of range (want >= 1)", r.Alpha)
	case !(r.Epsilon > 0 && r.Epsilon <= 1):
		return r, fmt.Errorf("epsilon %g out of range (0,1]", r.Epsilon)
	case !(r.Lambda == 0 || r.Lambda > 1):
		return r, fmt.Errorf("lambda %g out of range (want 0 for the default, or > 1)", r.Lambda)
	case !(r.SampleConstant >= 0):
		return r, fmt.Errorf("sample_constant %g out of range (want >= 0)", r.SampleConstant)
	case r.OptimumHint < 0:
		return r, fmt.Errorf("opt_hint %d out of range (want >= 0)", r.OptimumHint)
	case r.K < e.minK:
		return r, fmt.Errorf("%s needs k >= %d, got %d", e.Name, e.minK, r.K)
	}
	return r, nil
}

// Key identifies the result of a normalized request: the request itself,
// rendered with the per-call fields zeroed — Workers cannot change a result
// (the library's determinism contract), NoCache and Wait only change how
// the call behaves. Every other field, even one added later, is keyed.
func Key(r Request) string {
	r.Workers, r.NoCache, r.Wait = 0, false, false
	return fmt.Sprintf("%#v", r)
}

// Env is what a solve takes from its caller rather than from its request;
// none of it changes the result.
type Env struct {
	// Workers is the guess-grid parallelism (0 = GOMAXPROCS).
	Workers int
	// Trace receives one sample per stream pass. It must be an untyped nil
	// when tracing is off.
	Trace streamcover.TraceSink
	// Plan, when set, returns the instance's replay plan, or nil to stream
	// honestly. Only entries that consume a plan call it, so a solve that
	// cannot use one never builds one.
	Plan func() *streamcover.ReplayPlan
}

// Run solves a normalized request on inst with its entry's solver.
func Run(ctx context.Context, inst *streamcover.Instance, r Request, env Env) (Result, error) {
	e := Lookup(r.Algo)
	if e == nil {
		return Result{}, fmt.Errorf("unknown algo %q", r.Algo)
	}
	return e.run(ctx, inst, r, env)
}

// Trace is the one conversion of a solve's recorded passes to their wire
// form, for coverd's job snapshots and covercli -trace alike. It stamps the
// dispatched grid-kernel body when the entry sweeps the guess grid, and
// returns nil before the first pass completes.
func (e *Entry) Trace(rec *stream.Trace) *client.SolveTrace {
	samples := rec.Samples()
	if len(samples) == 0 {
		return nil
	}
	st := &client.SolveTrace{Passes: make([]client.PassTrace, len(samples))}
	if e.Grid {
		st.Kernel = bitset.GridKernel()
	}
	for i, s := range samples {
		st.Passes[i] = client.PassTrace{
			Pass: s.Pass, DurationSeconds: s.Duration.Seconds(), Items: s.Items,
			SpaceWords: s.SpaceWords, PeakSpaceWords: s.PeakSpace, Live: s.Live, Replayed: s.Replayed,
		}
	}
	return st
}

// solveOptions are the options SolveSetCover and SolveMaxCoverage share.
func solveOptions(ctx context.Context, r Request, env Env) []streamcover.Option {
	opts := []streamcover.Option{
		streamcover.WithEpsilon(r.Epsilon), streamcover.WithOrder(StreamOrder(r.Order)),
		streamcover.WithSeed(r.Seed), streamcover.WithSampleConstant(r.SampleConstant),
		streamcover.WithParallelism(env.Workers), streamcover.WithContext(ctx),
		streamcover.WithPassTrace(env.Trace),
	}
	if r.GreedySubsolver {
		opts = append(opts, streamcover.WithGreedySubsolver())
	}
	return opts
}

// offline is the entry of an offline reference solver: it streams nothing,
// and its summary reports only the cover size.
func offline(name, summary string, solve func(context.Context, *streamcover.Instance) ([]int, error)) Entry {
	return Entry{
		Name: name, epsilon: 0.5,
		Summary: func(_ Request, res Result) string { return fmt.Sprintf(summary, len(res.Cover)) },
		run: func(ctx context.Context, inst *streamcover.Instance, _ Request, _ Env) (Result, error) {
			cover, err := solve(ctx, inst)
			return Result{Cover: cover}, err
		},
	}
}

// baseline is a streaming baseline: a pass algorithm that reports a cover.
type baseline interface {
	stream.PassAlgorithm
	Result() ([]int, bool)
}

// runBaseline drives a streaming baseline over the instance in the
// requested order, seeding a random order from the request's seed.
func runBaseline(ctx context.Context, inst *streamcover.Instance, r Request, env Env, alg baseline, maxPasses int) (Result, error) {
	order := StreamOrder(r.Order)
	var orderRNG *rng.RNG
	if order != streamcover.Adversarial {
		orderRNG = rng.New(r.Seed)
	}
	acc, err := stream.RunTraced(ctx, stream.FromInstance(inst, order, orderRNG), alg, maxPasses, env.Trace)
	if err != nil {
		return Result{}, err
	}
	cover, ok := alg.Result()
	if !ok {
		return Result{}, streamcover.ErrInfeasible
	}
	sort.Ints(cover)
	return Result{Cover: cover, Passes: acc.Passes, SpaceWords: acc.PeakSpace}, nil
}

// passLine is the summary tail of a streaming baseline.
func passLine(res Result) string {
	return fmt.Sprintf("cover=%d sets, %d passes, %d words", len(res.Cover), res.Passes, res.SpaceWords)
}
