// Package core implements the paper's primary upper-bound contribution:
// Algorithm 1 of "Tight Space-Approximation Tradeoff for the Multi-Pass
// Streaming Set Cover Problem" (Assadi, PODS 2017), an (α+ε)-approximation
// streaming set cover algorithm that makes 2α+1 passes and stores
// Õ(m·n^{1/α}/ε² + n/ε) words (Theorem 2).
//
// The algorithm, given a guess õpt of the optimal cover size:
//
//  1. One-shot pruning pass: greedily pick every set covering at least
//     n/(ε·õpt) still-uncovered elements; at most ε·õpt sets are picked and
//     afterwards every set covers fewer than n/(ε·õpt) uncovered elements.
//  2. For α iterations: sample each uncovered element independently with
//     probability p = C·õpt·ln(m)/n^{1−1/α} (Lemma 3.12 with ρ = n^{−1/α},
//     paper constant C = 16); store the projection of every set onto the
//     sample (one pass); solve the sampled sub-instance *optimally* offline;
//     subtract the chosen sets from the uncovered universe (another pass).
//     Each iteration shrinks the uncovered set by a factor n^{1/α} w.h.p.,
//     so α iterations finish the cover with at most õpt sets per iteration
//     (Lemmas 3.10, 3.11).
//
// Since the correct õpt is unknown, Solve runs a (1+ε)-geometric grid of
// guesses in parallel over the same passes (the standard guessing trick the
// paper invokes) and returns the smallest feasible cover. The guesses of
// one worker share a bit-sliced uncovered grid (GridRun over bitset.Grid),
// so the hot prune-phase count probes all of them in one interleaved sweep
// per streamed set; see DESIGN.md §2.7.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"streamcover/internal/bitset"
	"streamcover/internal/offline"
	"streamcover/internal/parallel"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// Subsolver selects how the sampled sub-instance of each iteration is
// covered.
type Subsolver int

const (
	// SubsolverExact solves each sampled sub-instance optimally (what the
	// paper's Algorithm 1 step 3(c) specifies; the streaming model does not
	// charge computation). Required for the (α+ε)·opt guarantee.
	SubsolverExact Subsolver = iota
	// SubsolverGreedy covers each sampled sub-instance greedily. Cheaper
	// computationally but weakens the guarantee to O(α·log)·opt; kept as the
	// ablation of the exact sub-solve (experiment E11).
	SubsolverGreedy
)

func (s Subsolver) String() string {
	switch s {
	case SubsolverExact:
		return "exact"
	case SubsolverGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("subsolver(%d)", int(s))
	}
}

// Config parameterizes Algorithm 1.
type Config struct {
	// Alpha is the approximation parameter α ≥ 1: 2α+1 passes,
	// Õ(m·n^{1/α}) space, (α+ε)-approximation.
	Alpha int
	// Epsilon is ε ∈ (0,1]: prune-pass aggressiveness and guess-grid
	// resolution.
	Epsilon float64
	// SampleC is the constant in the element-sampling rate
	// p = SampleC·õpt·ln(m)/n^{1−1/α}. 0 means the paper's 16. Experiment
	// E10 sweeps it to locate the failure threshold of Lemma 3.12.
	SampleC float64
	// Subsolver selects the per-iteration offline solver (default exact).
	Subsolver Subsolver
	// SampleExponent overrides the per-iteration reduction exponent β in
	// ρ = n^{−β}: the sampling rate becomes C·õpt·ln(m)/n^{1−β} and the
	// number of iterations ⌈1/β⌉. 0 means the paper's β = 1/α. Setting
	// β = 2/α reproduces the coarser sampling of Har-Peled et al. (PODS
	// 2016), whose exponent constant is "larger than 2" — the baseline the
	// paper improves on (experiments E7, E11).
	SampleExponent float64
	// DisablePrune skips the one-shot pruning pass (ablation E11: the pass
	// is the other ingredient, besides the sharper rate, separating
	// Algorithm 1 from its predecessor).
	DisablePrune bool
	// OptGuesses overrides the õpt guess grid. nil means the full
	// (1+ε)-geometric grid over [1, n] (the paper's wrapper, which costs an
	// extra Õ(1/ε) space factor across parallel guesses). Callers that know
	// the optimum approximately can pass a short list — Algorithm 1 proper
	// (Theorem 2's statement) assumes õpt is given.
	OptGuesses []int
	// Workers is the multi-core parallelism of the guess grid: Solve splits
	// the guesses into this many groups and fans them out to as many
	// workers via internal/parallel. 0 selects GOMAXPROCS; 1 runs the whole
	// grid as one group inline on the caller's goroutine. The result is
	// bit-identical at every value (each guess owns an RNG split from the
	// root seed and observes the full stream in arrival order).
	Workers int
	// Context, when non-nil, cancels the solve cooperatively: the pass
	// driver polls it at pass boundaries, within passes and after EndPass
	// (see stream.Drive) and aborts with ctx.Err(). nil means no
	// cancellation. Cancellation does not perturb determinism: a run either
	// completes with the usual bit-identical result or returns ctx.Err().
	Context context.Context
	// Plan, when non-nil, is a pass-replay recording of the instance
	// (stream.BuildPlan), which Solve does not check: the caller must have
	// recorded it from the very instance it solves, as
	// streamcover.SolveSetCover enforces. Solve serves every item's
	// payload — elements and prebuilt run list — from the plan while the
	// instance stream still drives arrival order, so replay is
	// bit-identical under every Order including RandomEachPass. A serving
	// optimization only: plan bytes are accounted by the owner (the coverd
	// registry), never in the returned Accounting, and the experiments
	// harness leaves it nil.
	Plan *stream.Plan
	// Trace, when non-nil, receives one stream.PassSample per completed
	// pass from the pass driver. Sampling happens only at pass boundaries
	// (O(passes) work and storage); nil disables tracing entirely,
	// including the wall-clock reads. Tracing never perturbs results: the
	// solve's RNG discipline and pass schedule are untouched.
	Trace stream.TraceSink
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Alpha < 1 {
		out.Alpha = 1
	}
	if out.Epsilon <= 0 || out.Epsilon > 1 {
		out.Epsilon = 0.5
	}
	if out.SampleC <= 0 {
		out.SampleC = 16
	}
	if out.SampleExponent <= 0 || out.SampleExponent > 1 {
		out.SampleExponent = 1 / float64(out.Alpha)
	}
	return out
}

// iterations returns the number of sample/solve iterations: ⌈1/β⌉, which is
// α for the paper's β = 1/α.
func (c Config) iterations() int {
	it := int(math.Ceil(1/c.SampleExponent - 1e-9))
	if it < 1 {
		it = 1
	}
	return it
}

// Result reports the outcome of a run for one õpt guess.
type Result struct {
	Cover    []int // chosen set IDs, sorted
	Feasible bool  // the algorithm verified every universe element covered
	Guess    int   // the õpt guess this run used
	Err      error // sub-solver failure (e.g. node budget exceeded)
}

// Run is the single-guess Algorithm 1. Every Run is a lane of a GridRun —
// the group that owns the bit-sliced uncovered/sample bitsets and drives
// the shared pass state machine; a standalone Run (NewRun) is the lane of
// a 1-lane group, whose grid layout is byte-identical to a dense bitset.
//
// Run implements stream.PassAlgorithm by delegating to its group, so a
// single guess can be driven on its own (stream.Run(st, run, ...)). Do not
// drive a lane of a multi-lane group directly — drive the GridRun; the
// per-lane accessors (Result, UncoveredHistory, PrunePicked) are always
// safe.
//
// Pass layout: pass 0 prunes; then iteration j ∈ [0,α) uses pass 2j+1 to
// store sampled projections and pass 2j+2 to subtract the sub-cover. A
// lane finishes early once its uncovered set is empty.
type Run struct {
	cfg  Config
	n, m int
	opt  int // the õpt guess
	r    *rng.RNG

	g    *GridRun // owning group
	lane int      // this run's lane in g

	uCount   int // |U| for this lane
	usmplCnt int // |sample| for this lane
	// Stored projections, in CSR form mirroring setsystem.Instance: one flat
	// element arena plus offsets, so the store-pass Observe path appends to
	// two flat slices (amortized allocation-free) instead of allocating one
	// slice per projected set. projElems holds the sampled-element IDs, all
	// projections concatenated, until solveSample rewrites them in place to
	// their ranks in the sample and hands the arena to the sub-solver as a
	// CSR view.
	projIDs   []int // set IDs with non-empty sampled projection
	projOffs  []int // offsets into projElems; len(projIDs)+1 when non-empty
	projElems []int32
	chosen    map[int]bool
	pending   []int // sub-cover awaiting subtraction
	sol       []int
	solSet    map[int]bool
	failed    bool
	err       error
	done      bool

	// uncovHistory records |U| after the prune pass and after each
	// subtraction pass — the Lemma 3.11 decay trace (each iteration should
	// shrink |U| by roughly n^{β}).
	uncovHistory []int
	// prunePicked counts sets taken by the pruning pass; Lemma 3.10 bounds
	// it by ε·õpt (each pick covers ≥ n/(ε·õpt) new elements).
	prunePicked int
}

type phase int

const (
	phasePrune phase = iota
	phaseStore
	phaseSubtract
	phaseDone
)

// GridRun runs a group of single-guess Algorithm 1 lanes in pass lockstep
// over one bit-sliced bitset.Grid: lane g's uncovered (and sample) bitset
// is lane g of the grid, so the prune-phase count — the hottest loop in the
// solver — probes every live guess with one interleaved sweep per streamed
// set (Grid.AndCountRuns, the dispatched scalar/AVX2 kernel) instead of one
// strided pass per guess.
//
// All lanes share the phase schedule (every guess of Algorithm 1 uses the
// same pass layout), so the group is a single stream.PassAlgorithm; lanes
// that finish early are skipped (their state frozen) until the whole group
// is done. Grouping is invisible in results and accounting: each lane's
// RNG, decisions, and Space contribution are exactly those of a standalone
// Run, so any partition of a guess grid into groups — including the
// per-worker partition NewSolver picks — is bit-identical to per-guess runs
// (the conformance matrix's goldens pin this).
type GridRun struct {
	cfg  Config
	n, m int

	runs  []*Run
	phase phase
	iter  int
	live  int // lanes not yet done
	sole  int // the single live lane when live == 1, else -1 (set per pass)

	u          *bitset.Grid // uncovered elements, one lane per guess
	usmpl      *bitset.Grid // current samples (lane-wise subsets of u)
	counts     []int64      // AndCountRuns accumulator, grid width
	runScratch []bitset.Run // per-item run list when no driver prefilled one
}

// NewGridRun returns the bit-sliced group of one Algorithm 1 lane per
// guess, all over a universe of size n with m sets. rngs must have one
// entry per guess; each lane samples from its own RNG, so grouping does not
// perturb per-guess determinism. Guesses below 1 are clamped to 1.
func NewGridRun(n, m int, guesses []int, cfg Config, rngs []*rng.RNG) *GridRun {
	if len(guesses) == 0 {
		panic("core: GridRun needs at least one guess")
	}
	if len(guesses) != len(rngs) {
		panic(fmt.Sprintf("core: %d guesses but %d RNGs", len(guesses), len(rngs)))
	}
	c := cfg.withDefaults()
	g := &GridRun{cfg: c, n: n, m: m, sole: -1}
	g.runs = make([]*Run, len(guesses))
	for i, opt := range guesses {
		if opt < 1 {
			opt = 1
		}
		g.runs[i] = &Run{cfg: c, n: n, m: m, opt: opt, r: rngs[i],
			g: g, lane: i, chosen: map[int]bool{}, solSet: map[int]bool{}}
	}
	return g
}

// Lanes returns the number of guesses in the group.
func (g *GridRun) Lanes() int { return len(g.runs) }

// LiveLanes implements stream.LaneCounter: the number of guesses in the
// group still running. Traced drivers read it at pass boundaries to fill
// PassSample.Live.
func (g *GridRun) LiveLanes() int { return g.live }

// Lane returns the single-guess run occupying lane i.
func (g *GridRun) Lane(i int) *Run { return g.runs[i] }

// NewRun returns a single-guess Algorithm 1 over a universe of size n with
// m sets, guessing õpt = optGuess. The RNG drives element sampling. The
// returned Run is the lane of a fresh 1-lane GridRun, so driving it costs
// exactly what the pre-grid dense-bitset run cost.
func NewRun(n, m, optGuess int, cfg Config, r *rng.RNG) *Run {
	return NewGridRun(n, m, []int{optGuess}, cfg, []*rng.RNG{r}).Lane(0)
}

// sampleRate returns p = C·õpt·ln(m)/n^{1−β}, clamped to [0,1], where β is
// the reduction exponent (the paper's 1/α by default).
func (a *Run) sampleRate() float64 {
	if a.n == 0 {
		return 0
	}
	lm := math.Log(float64(a.m))
	if lm < 1 {
		lm = 1
	}
	p := a.cfg.SampleC * float64(a.opt) * lm /
		math.Pow(float64(a.n), 1-a.cfg.SampleExponent)
	if p > 1 {
		p = 1
	}
	return p
}

// pruneThreshold returns the first-pass pick threshold n/(ε·õpt).
func (a *Run) pruneThreshold() float64 {
	return float64(a.n) / (a.cfg.Epsilon * float64(a.opt))
}

// BeginPass implements stream.PassAlgorithm for the group.
func (g *GridRun) BeginPass(pass int) {
	switch {
	case pass == 0:
		g.u = bitset.NewGrid(g.n, len(g.runs))
		g.counts = g.u.MakeCounts()
		for lane, a := range g.runs {
			g.u.Fill(lane)
			a.uCount = g.n
		}
		g.live = len(g.runs)
		if g.cfg.DisablePrune {
			g.beginStorePass()
		} else {
			g.phase = phasePrune
		}
	case g.live == 0:
		g.phase = phaseDone
	case g.phase == phasePrune || g.phase == phaseSubtract:
		g.beginStorePass()
	case g.phase == phaseStore:
		g.phase = phaseSubtract
	}
	// live only changes at EndPass, so the sole-live-lane shortcut the
	// Observe fallbacks use is stable for the whole pass.
	g.sole = -1
	if g.live == 1 {
		for lane, a := range g.runs {
			if !a.done {
				g.sole = lane
				break
			}
		}
	}
}

// BeginPass implements stream.PassAlgorithm by delegating to the group.
func (a *Run) BeginPass(pass int) { a.g.BeginPass(pass) }

// beginStorePass starts the next iteration by sampling each live lane's
// uncovered universe at its configured rate.
func (g *GridRun) beginStorePass() {
	g.phase = phaseStore
	if g.usmpl == nil {
		g.usmpl = bitset.NewGrid(g.n, len(g.runs))
	}
	for lane, a := range g.runs {
		if a.done {
			continue
		}
		g.usmpl.Reset(lane)
		a.usmplCnt = 0
		p := a.sampleRate()
		g.u.Range(lane, func(e int) bool {
			if a.r.Bernoulli(p) {
				g.usmpl.Set(lane, e)
				a.usmplCnt++
			}
			return true
		})
		a.projIDs = a.projIDs[:0]
		a.projOffs = append(a.projOffs[:0], 0)
		a.projElems = a.projElems[:0]
	}
}

// Observe implements stream.PassAlgorithm for the group. This is the
// per-item hot path. With more than one live lane the item's word-mask run
// list (prefilled by the driver, or built here once into group scratch) is
// swept across the whole grid: the prune phase is one interleaved
// Grid.AndCountRuns — the dispatched scalar/AVX2 kernel — feeding every
// lane's threshold test, and the store/subtract phases use the strided
// single-lane kernels per live lane. With exactly one live lane the group
// degenerates to the pre-grid behavior: kernels when the driver shipped
// runs, scalar element loops otherwise (building a run list for a single
// consumer costs more than one probe loop, so the word-parallel path is
// taken exactly when the build is amortized). All paths compute identical
// results (the grid parity property tests and the scalar-golden parity
// tests pin this) and allocate nothing in the prune and subtract phases
// (the store phase appends to the flat projection arenas, amortized
// allocation-free once the arenas have grown).
func (g *GridRun) Observe(item stream.Item) {
	switch g.phase {
	case phasePrune:
		if g.sole >= 0 {
			g.lanePrune(g.sole, item)
			return
		}
		var runs []bitset.Run
		runs, g.runScratch = item.RunsInto(g.runScratch)
		counts := g.counts
		for i := range counts {
			counts[i] = 0
		}
		g.u.AndCountRuns(runs, counts)
		for lane, a := range g.runs {
			if a.done {
				continue
			}
			if cnt := counts[lane]; cnt > 0 && float64(cnt) >= a.pruneThreshold() {
				a.takeSet(item.ID)
				a.prunePicked++
				a.uCount -= g.u.LaneAndNotRuns(lane, runs)
			}
		}
	case phaseStore:
		if g.sole >= 0 {
			g.laneStore(g.sole, item)
			return
		}
		var runs []bitset.Run
		runs, g.runScratch = item.RunsInto(g.runScratch)
		for lane, a := range g.runs {
			if a.done {
				continue
			}
			start := len(a.projElems)
			a.reserve(len(item.Elems))
			a.projElems = g.usmpl.LaneAndRunsAppend(lane, a.projElems, runs)
			if len(a.projElems) > start {
				a.projIDs = append(a.projIDs, item.ID)
				a.projOffs = append(a.projOffs, len(a.projElems))
			}
		}
	case phaseSubtract:
		if g.sole >= 0 {
			if g.runs[g.sole].chosen[item.ID] {
				g.laneSubtract(g.sole, item)
			}
			return
		}
		// Probe the (tiny) chosen maps before paying for a runs build: at
		// most õpt sets per lane are subtracted per pass.
		need := false
		for _, a := range g.runs {
			if !a.done && a.chosen[item.ID] {
				need = true
				break
			}
		}
		if !need {
			return
		}
		var runs []bitset.Run
		runs, g.runScratch = item.RunsInto(g.runScratch)
		for lane, a := range g.runs {
			if !a.done && a.chosen[item.ID] {
				a.uCount -= g.u.LaneAndNotRuns(lane, runs)
			}
		}
	}
}

// Observe implements stream.PassAlgorithm by delegating to the group.
func (a *Run) Observe(item stream.Item) { a.g.Observe(item) }

// lanePrune is the one-live-lane prune fallback: kernel probe when the
// driver shipped runs, scalar element loop otherwise.
func (g *GridRun) lanePrune(lane int, item stream.Item) {
	a := g.runs[lane]
	cnt := 0
	if item.Runs != nil {
		cnt = g.u.LaneAndCountRuns(lane, item.Runs)
	} else {
		cnt = g.u.LaneCountElems(lane, item.Elems)
	}
	if cnt > 0 && float64(cnt) >= a.pruneThreshold() {
		a.takeSet(item.ID)
		a.prunePicked++
		g.laneSubtract(lane, item)
	}
}

// laneStore is the one-live-lane store fallback.
func (g *GridRun) laneStore(lane int, item stream.Item) {
	a := g.runs[lane]
	start := len(a.projElems)
	a.reserve(len(item.Elems))
	if item.Runs != nil {
		a.projElems = g.usmpl.LaneAndRunsAppend(lane, a.projElems, item.Runs)
	} else {
		a.projElems = g.usmpl.LaneFilterElemsAppend(lane, a.projElems, item.Elems)
	}
	if len(a.projElems) > start {
		a.projIDs = append(a.projIDs, item.ID)
		a.projOffs = append(a.projOffs, len(a.projElems))
	}
}

// reserve makes room in the projection arena for the k elements an item
// can project at most, before an append kernel runs. A growing arena at
// least doubles: append alone grows a large slice by about 1.25×, which
// copies the arena about four times its final size over a store pass.
func (a *Run) reserve(k int) {
	if len(a.projElems)+k > cap(a.projElems) {
		a.projElems = slices.Grow(a.projElems, max(k, 2*cap(a.projElems)-len(a.projElems)))
	}
}

// laneSubtract removes the item's elements from the lane's uncovered set,
// keeping uCount in sync via the kernel's popcount delta (or the scalar
// loop when the item carries no run list).
func (g *GridRun) laneSubtract(lane int, item stream.Item) {
	a := g.runs[lane]
	if item.Runs != nil {
		a.uCount -= g.u.LaneAndNotRuns(lane, item.Runs)
		return
	}
	a.uCount -= g.u.LaneClearElems(lane, item.Elems)
}

// EndPass implements stream.PassAlgorithm for the group; done means every
// lane has finished.
func (g *GridRun) EndPass() bool {
	switch g.phase {
	case phasePrune:
		for _, a := range g.runs {
			if a.done {
				continue
			}
			a.uncovHistory = append(a.uncovHistory, a.uCount)
			if a.uCount == 0 {
				g.laneDone(a)
			}
		}
	case phaseStore:
		for _, a := range g.runs {
			if a.done {
				continue
			}
			a.solveSample()
			if a.failed {
				g.laneDone(a)
			}
		}
	case phaseSubtract:
		next := g.iter + 1
		for _, a := range g.runs {
			if a.done {
				continue
			}
			for _, id := range a.pending {
				a.takeSet(id)
			}
			a.pending = nil
			a.chosen = map[int]bool{}
			a.freeProjections()
			a.uncovHistory = append(a.uncovHistory, a.uCount)
			if a.uCount == 0 {
				g.laneDone(a)
			} else if next >= a.cfg.iterations() {
				// Iterations exhausted with uncovered elements left: this guess
				// failed (õpt too small for the sampling to succeed).
				a.failed = true
				g.laneDone(a)
			}
		}
		g.iter = next
	case phaseDone:
		// nothing to do; stay done
	}
	return g.live == 0
}

// EndPass implements stream.PassAlgorithm by delegating to the group.
func (a *Run) EndPass() bool { return a.g.EndPass() }

func (g *GridRun) laneDone(a *Run) {
	a.done = true
	g.live--
}

// solveSample covers the lane's sampled universe with the configured
// sub-solver and records the chosen set IDs for the subtraction pass.
func (a *Run) solveSample() {
	if a.usmplCnt == 0 {
		// Nothing sampled (tiny U or p rounding): the iteration is a no-op.
		return
	}
	// Compact the sampled universe to [0, usmplCnt) by ranking every stored
	// element within the lane's sample, in place: ranks are monotone, so
	// each projection stays sorted. Nothing reads the global IDs after this
	// (the subtract pass uses chosen; Space reads only lengths), and the
	// sub-instance is a zero-copy view of the rewritten arena.
	a.g.usmpl.LaneRankElems(a.lane, a.projElems)
	sub := setsystem.CSRView(a.usmplCnt, a.projOffs, a.projElems)

	var picked []int
	switch a.cfg.Subsolver {
	case SubsolverGreedy:
		cover, err := offline.GreedyContext(a.cfg.Context, sub)
		if err != nil {
			if err != offline.ErrInfeasible {
				a.err = err
			}
			a.failed = true
			return
		}
		picked = cover
	default:
		cover, ok, err := offline.CoverAtMost(sub, a.opt, offline.ExactConfig{Context: a.cfg.Context})
		if err != nil {
			a.err = err
			a.failed = true
			return
		}
		if !ok {
			// No cover of size ≤ õpt exists on the sample ⇒ the guess is too
			// small (the true optimum restricted to the sample would fit).
			a.failed = true
			return
		}
		picked = cover
	}
	a.pending = a.pending[:0]
	for _, local := range picked {
		id := a.projIDs[local]
		a.pending = append(a.pending, id)
		a.chosen[id] = true
	}
}

func (a *Run) takeSet(id int) {
	if !a.solSet[id] {
		a.solSet[id] = true
		a.sol = append(a.sol, id)
	}
}

// freeProjections ends the accounting life of the stored projections. The
// backing arrays keep their capacity for the next iteration (the space
// charge is what the algorithm logically retains, not Go's allocator
// state), except the sample bitset count which must read as zero.
func (a *Run) freeProjections() {
	a.projIDs = a.projIDs[:0]
	a.projOffs = a.projOffs[:0]
	a.projElems = a.projElems[:0]
	a.usmplCnt = 0
}

// Space implements stream.PassAlgorithm for the group: the sum of the
// lanes' footprints, each charged exactly as a standalone run — the
// uncovered lane at n words (one flag per universe element, the paper's
// O(n) term), stored projections at one word per retained set ID and
// element ID. Finished lanes keep paying for what they retain.
func (g *GridRun) Space() int {
	sp := 0
	for _, a := range g.runs {
		sp += len(a.sol) + len(a.pending)
		if g.u != nil {
			sp += a.n
		}
		sp += a.usmplCnt + len(a.projIDs) + len(a.projElems)
	}
	return sp
}

// Space implements stream.PassAlgorithm by delegating to the group (for a
// standalone Run the group is its 1-lane group, so this is the run's own
// footprint).
func (a *Run) Space() int { return a.g.Space() }

// UncoveredHistory returns |U| after the prune pass and after each
// sample/solve/subtract iteration — the empirical Lemma 3.11 decay trace.
func (a *Run) UncoveredHistory() []int {
	return append([]int(nil), a.uncovHistory...)
}

// PrunePicked returns the number of sets the pruning pass took; Lemma 3.10
// bounds it by ε·õpt.
func (a *Run) PrunePicked() int { return a.prunePicked }

// Result returns the run outcome. Valid after the driver reports done.
func (a *Run) Result() Result {
	cover := append([]int(nil), a.sol...)
	sort.Ints(cover)
	return Result{Cover: cover, Feasible: !a.failed && a.uCount == 0, Guess: a.opt, Err: a.err}
}

// Passes returns the pass count Algorithm 1 needs in the worst case for the
// configured α: one prune pass plus two per iteration (2α+1, Theorem 2).
func Passes(alpha int) int { return 2*alpha + 1 }

// MaxPasses returns the worst-case pass count for this configuration,
// accounting for a custom reduction exponent and a disabled prune pass.
func (c Config) MaxPasses() int {
	d := c.withDefaults()
	passes := 2 * d.iterations()
	if !d.DisablePrune {
		passes++
	}
	return passes
}

// Guesses returns the (1+ε)-geometric õpt guess grid {1, (1+ε), ...} ∩ [1,n],
// deduplicated after rounding up.
func Guesses(n int, eps float64) []int {
	if eps <= 0 {
		eps = 0.5
	}
	var out []int
	last := 0
	for g := 1.0; ; g *= 1 + eps {
		v := int(math.Ceil(g))
		if v > n {
			break
		}
		if v != last {
			out = append(out, v)
			last = v
		}
		if v == n {
			break
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// Solver runs Algorithm 1 for every õpt guess in parallel over the shared
// passes, as the paper prescribes, and reports the smallest feasible cover.
// The guesses are partitioned contiguously into one GridRun group per
// worker, so each worker sweeps its guesses' uncovered bitsets with the
// interleaved grid kernel; the partition is invisible in results and
// accounting (see GridRun).
type Solver struct {
	groups   []*GridRun
	children []stream.PassAlgorithm // the groups, as the driver's children
	runs     []*Run
	drive    parallel.Config // Workers, Context and Trace of the solve
}

// NewSolver builds the parallel guess runner for a stream with universe n
// and m sets.
func NewSolver(n, m int, cfg Config, r *rng.RNG) *Solver {
	c := cfg.withDefaults()
	guesses := c.OptGuesses
	if len(guesses) == 0 {
		guesses = Guesses(n, c.Epsilon)
	}
	// Split the per-guess RNGs in guess order, before grouping: Split
	// advances the parent RNG, so the split order is part of the seed
	// contract and must not depend on the worker count.
	rngs := make([]*rng.RNG, len(guesses))
	for i, g := range guesses {
		rngs[i] = r.Split(fmt.Sprintf("guess-%d", g))
	}
	ng := min(parallel.Workers(c.Workers), len(guesses))
	if ng < 1 {
		ng = 1
	}
	groups := make([]*GridRun, ng)
	children := make([]stream.PassAlgorithm, ng)
	runs := make([]*Run, 0, len(guesses))
	for gi := range groups {
		lo, hi := gi*len(guesses)/ng, (gi+1)*len(guesses)/ng
		groups[gi] = NewGridRun(n, m, guesses[lo:hi], c, rngs[lo:hi])
		children[gi] = groups[gi]
		for l := 0; l < groups[gi].Lanes(); l++ {
			runs = append(runs, groups[gi].Lane(l))
		}
	}
	return &Solver{groups: groups, children: children, runs: runs,
		drive: parallel.Config{Workers: c.Workers, Context: c.Context, Trace: c.Trace}}
}

// Run drives the guess groups over st for up to maxPasses passes through
// parallel.Run at the Workers of the Config the solver was built with: one
// group per worker, observed inline on the caller's goroutine at one
// worker. Results and accounting are bit-identical at every worker count —
// each guess owns an RNG split from the root seed and observes the full
// stream in arrival order (see stream.Drive's determinism contract and
// GridRun's grouping invariance).
func (s *Solver) Run(st stream.Stream, maxPasses int) (stream.Accounting, error) {
	cfg := s.drive
	cfg.MaxPasses = maxPasses
	return parallel.Run(st, s.children, cfg)
}

// Best returns the smallest feasible cover across guesses. ok is false when
// no guess produced a feasible cover (e.g. the instance is not coverable).
func (s *Solver) Best() (Result, bool) {
	var best Result
	found := false
	for _, run := range s.runs {
		res := run.Result()
		if !res.Feasible {
			continue
		}
		if !found || len(res.Cover) < len(best.Cover) {
			best = res
			found = true
		}
	}
	return best, found
}

// Runs exposes the per-guess runs in guess order (for tests and
// experiments).
func (s *Solver) Runs() []*Run { return s.runs }

// Groups exposes the per-worker guess groups (for tests).
func (s *Solver) Groups() []*GridRun { return s.groups }

// Solve is the convenience entry point: stream the instance in the given
// order and return the best cover with driver accounting.
func Solve(inst *setsystem.Instance, order stream.Order, cfg Config, r *rng.RNG) (Result, stream.Accounting, error) {
	s := stream.FromInstance(inst, order, r.Split("stream-order"))
	if cfg.Plan != nil {
		// The instance stream still draws the arrival permutation (so the
		// RNG discipline and every Order behave exactly as an honest solve);
		// only the per-item payload comes from the plan.
		return SolveStream(stream.Replay(s, cfg.Plan), cfg, r)
	}
	return SolveStream(s, cfg, r)
}

// SolveStream runs the guess grid over an already-constructed stream (for
// Solve's in-memory streams the order split has been consumed by the
// caller; file-backed streams are inherently adversarial-order and take
// this entry point directly, e.g. covercli's -in path). The root RNG must
// be post-split — use SolveFile-style call sites as the template:
//
//	r := rng.New(seed)
//	r.Split("stream-order") // discard: parity with Solve on the decoded instance
//	res, acc, err := core.SolveStream(fs, cfg, r)
//
// SolveFileRNG packages that discipline.
func SolveStream(st stream.Stream, cfg Config, r *rng.RNG) (Result, stream.Accounting, error) {
	c := cfg.withDefaults()
	solver := NewSolver(st.Universe(), st.Len(), c, r)
	acc, err := solver.Run(st, c.MaxPasses()+1)
	if err != nil {
		return Result{}, acc, err
	}
	best, ok := solver.Best()
	if !ok {
		return Result{}, acc, offline.ErrInfeasible
	}
	return best, acc, nil
}

// SolveFileRNG returns the root RNG for a file-backed SolveStream call:
// rng.New(seed) with the "stream-order" split consumed exactly as Solve
// consumes it, so that for a fixed seed a solve over a file stream is
// bit-identical — cover, guess, passes, space — to Solve (and the public
// SolveSetCover) on the decoded instance in adversarial order. This is
// the equality the coverd serve-smoke diff enforces end to end.
func SolveFileRNG(seed uint64) *rng.RNG {
	r := rng.New(seed)
	r.Split("stream-order")
	return r
}
