// Package maxcover implements streaming maximum k-coverage algorithms.
//
// The paper's Section 3.4 uses (1−ε)-approximate maximum coverage with very
// small ε as the per-iteration subroutine of streaming set cover, and its
// Theorem 4 proves any such algorithm needs Ω̃(m/ε²) space. This package
// provides the two standard upper-bound strategies:
//
//   - SampledKCover: element sampling in the style of McGregor–Vu (ICDT
//     2017) and Bateni et al.: project every set onto a random sample of
//     Θ(k·ln m/ε²) universe elements (one pass, Õ(m·k/ε²) words total) and
//     solve maximum coverage on the sample offline. (1−ε)-approximation
//     w.h.p. — matching the Ω̃(m/ε²) lower bound up to the k factor.
//
//   - Sieve: the single-pass threshold ("sieve-streaming") algorithm of
//     Badanidiyuru et al. (KDD 2014) specialized to coverage: maintain a
//     geometric grid of OPT guesses and add a set to a guess's solution
//     when its marginal coverage crosses (v/2 − current)/(k − picked).
//     (1/2−ε)-approximation — the quality/space baseline below the (1−ε)
//     regime.
package maxcover

import (
	"context"
	"math"
	"slices"
	"sort"

	"streamcover/internal/bitset"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// SampledConfig configures SampledKCover.
type SampledConfig struct {
	// K is the coverage budget (number of sets to pick).
	K int
	// Eps is the target approximation slack: (1−ε)·opt coverage w.h.p.
	Eps float64
	// SampleC scales the sample size C·K·ln(m)/ε²; 0 means 4.
	SampleC float64
	// Exact solves the sampled instance optimally when true (feasible for
	// small K); otherwise greedy is used, costing an extra (1−1/e) factor.
	Exact bool
	// NodeBudget bounds the exact sub-solve (0 = offline default).
	NodeBudget int64
	// Workers is the parallelism of the greedy sub-solve's per-round
	// candidate gain scan (0 = GOMAXPROCS, 1 = sequential). The chosen sets
	// are identical at every worker count: ties break toward the lowest set
	// index exactly as in the sequential scan.
	Workers int
	// Context, when non-nil, cancels the exact offline sub-solve of EndPass
	// cooperatively (branch-and-bound polls it every few thousand nodes);
	// the stream driver handles cancellation between Observe chunks.
	Context context.Context
}

// SampledKCover is the element-sampling streaming maximum coverage
// algorithm (one pass over the stream).
type SampledKCover struct {
	cfg  SampledConfig
	n, m int
	r    *rng.RNG

	sample []int // sorted sampled universe elements
	remap  map[int32]int32
	// Stored projections in CSR form (flat arena + offsets), as in core.Run:
	// the one-pass Observe path appends to flat slices instead of allocating
	// a slice per projected set.
	projIDs   []int
	projOffs  []int
	projElems []int32
	chosen    []int
	err       error
	done      bool
}

// NewSampledKCover builds the algorithm for a stream with universe n and m
// sets.
func NewSampledKCover(n, m int, cfg SampledConfig, r *rng.RNG) *SampledKCover {
	if cfg.K < 1 {
		cfg.K = 1
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		cfg.Eps = 0.1
	}
	if cfg.SampleC <= 0 {
		cfg.SampleC = 4
	}
	return &SampledKCover{cfg: cfg, n: n, m: m, r: r}
}

// SampleSize returns the number of universe elements sampled:
// min(n, C·K·ln(m)/ε²).
func (a *SampledKCover) SampleSize() int {
	lm := math.Log(float64(a.m))
	if lm < 1 {
		lm = 1
	}
	s := int(a.cfg.SampleC * float64(a.cfg.K) * lm / (a.cfg.Eps * a.cfg.Eps))
	if s > a.n {
		s = a.n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// BeginPass implements stream.PassAlgorithm.
func (a *SampledKCover) BeginPass(pass int) {
	if pass != 0 {
		return
	}
	a.sample = a.r.KSubset(a.n, a.SampleSize())
	a.remap = make(map[int32]int32, len(a.sample))
	for i, e := range a.sample {
		a.remap[int32(e)] = int32(i)
	}
	a.projOffs = append(a.projOffs[:0], 0)
}

// Observe implements stream.PassAlgorithm.
func (a *SampledKCover) Observe(item stream.Item) {
	if a.done {
		return
	}
	start := len(a.projElems)
	for _, e := range item.Elems {
		if idx, ok := a.remap[e]; ok {
			a.projElems = append(a.projElems, idx)
		}
	}
	if len(a.projElems) > start {
		slices.Sort(a.projElems[start:])
		a.projIDs = append(a.projIDs, item.ID)
		a.projOffs = append(a.projOffs, len(a.projElems))
	}
}

// EndPass implements stream.PassAlgorithm: solves the sampled instance, a
// zero-copy view of the flat projection arena.
func (a *SampledKCover) EndPass() bool {
	sub := setsystem.CSRView(len(a.sample), a.projOffs, a.projElems)
	var picked []int
	if a.cfg.Exact {
		chosen, _, err := offline.MaxCoverExact(sub, a.cfg.K,
			offline.ExactConfig{NodeBudget: a.cfg.NodeBudget, Context: a.cfg.Context})
		if err != nil {
			a.err = err
			a.done = true
			return true
		}
		picked = chosen
	} else {
		picked, _ = offline.MaxCoverGreedyWorkers(sub, a.cfg.K, a.cfg.Workers)
	}
	for _, local := range picked {
		a.chosen = append(a.chosen, a.projIDs[local])
	}
	sort.Ints(a.chosen)
	a.done = true
	return true
}

// Space implements stream.PassAlgorithm: the sample plus stored projections
// (one word per retained set ID and element ID, as before the CSR layout).
func (a *SampledKCover) Space() int {
	return len(a.sample) + len(a.projIDs) + len(a.projElems) + len(a.chosen)
}

// Result returns the chosen set IDs and any sub-solver error.
func (a *SampledKCover) Result() ([]int, error) {
	return append([]int(nil), a.chosen...), a.err
}

// Sieve is the single-pass threshold maximum-coverage algorithm. Its
// geometric OPT-guess grid is its own fan-out — every guess probes every
// item — so the per-guess covered bitsets live as lanes of one bit-sliced
// bitset.Grid, and Observe computes all marginal gains with one interleaved
// Grid.AndCountRuns sweep (the dispatched scalar/AVX2 kernel) per item.
//
// Only *active* guesses — those still short of the k-set budget — occupy
// grid lanes: a guess that saturates never probes again (its count is
// final), so the grid is compacted to the surviving lanes on every
// saturation and the sweep's width tracks the live frontier instead of the
// full geometric grid.
type Sieve struct {
	n, k int
	eps  float64

	maxSingleton int
	guesses      []sieveGuess
	lanes        []int        // lanes[l] = index into guesses of lane l's owner
	grid         *bitset.Grid // covered elements, one lane per active guess
	counts       []int64      // AndCountRuns accumulator, grid width
	runScratch   []bitset.Run
	done         bool
}

type sieveGuess struct {
	v      float64
	chosen []int
	count  int
	lane   int // grid lane while active; -1 once saturated
}

// NewSieve builds a sieve for universe n with budget k and slack ε.
func NewSieve(n, k int, eps float64) *Sieve {
	if k < 1 {
		k = 1
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	return &Sieve{n: n, k: k, eps: eps}
}

// BeginPass implements stream.PassAlgorithm.
func (s *Sieve) BeginPass(pass int) {}

// Observe implements stream.PassAlgorithm. The item's run list is built (or
// taken from the producer) once, swept across the active lanes in one
// interleaved Grid.AndCountRuns — all per-guess already-covered counts from
// stride-1 loads — and each active guess then applies its threshold test to
// its lane's count. Picks update the picking guess's lane only; a pick that
// saturates its guess triggers a grid compaction to the surviving lanes.
func (s *Sieve) Observe(item stream.Item) {
	if s.done {
		return
	}
	if len(item.Elems) > s.maxSingleton {
		s.maxSingleton = len(item.Elems)
		s.refreshGuesses()
	}
	if len(s.lanes) == 0 {
		return
	}
	var runs []bitset.Run
	runs, s.runScratch = item.RunsInto(s.runScratch)
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	s.grid.AndCountRuns(runs, counts)
	saturated := false
	for l, gi := range s.lanes {
		g := &s.guesses[gi]
		gain := len(item.Elems) - int(counts[l])
		need := (g.v/2 - float64(g.count)) / float64(s.k-len(g.chosen))
		if float64(gain) >= need && gain > 0 {
			g.chosen = append(g.chosen, item.ID)
			g.count += s.grid.LaneOrRuns(l, runs)
			if len(g.chosen) >= s.k {
				saturated = true
			}
		}
	}
	if saturated {
		s.compactLanes()
	}
}

// compactLanes rebuilds the grid over the guesses still short of the budget,
// dropping saturated guesses' covered lanes (their counts are final). Each
// guess saturates at most once, so the total compaction cost over a pass is
// O(guesses · grid words).
func (s *Sieve) compactLanes() {
	keep := s.lanes[:0]
	for _, gi := range s.lanes {
		if len(s.guesses[gi].chosen) < s.k {
			keep = append(keep, gi)
		} else {
			s.guesses[gi].lane = -1
		}
	}
	if len(keep) == len(s.lanes) {
		return
	}
	if len(keep) == 0 {
		s.lanes, s.grid, s.counts = nil, nil, nil
		return
	}
	grid := bitset.NewGrid(s.n, len(keep))
	for l, gi := range keep {
		grid.CopyLane(l, s.grid, s.guesses[gi].lane)
		s.guesses[gi].lane = l
	}
	s.lanes = keep
	s.grid = grid
	s.counts = grid.MakeCounts()
}

// refreshGuesses lazily maintains the geometric OPT-guess grid
// {(1+ε)^j : maxSingleton ≤ (1+ε)^j ≤ 2·k·maxSingleton}, carrying over the
// state of guesses that remain in range. The covered grid is rebuilt over
// the active (unsaturated) guesses of the new grid — surviving active
// lanes are migrated with CopyLane, fresh guesses start empty, and
// saturated survivors keep their final counts without a lane.
func (s *Sieve) refreshGuesses() {
	lo := float64(s.maxSingleton)
	hi := 2 * float64(s.k) * float64(s.maxSingleton)
	existing := map[int]int{} // geometric index j → current guess index
	for gi, g := range s.guesses {
		existing[int(math.Round(math.Log(g.v)/math.Log(1+s.eps)))] = gi
	}
	jLo := int(math.Floor(math.Log(lo) / math.Log(1+s.eps)))
	jHi := int(math.Ceil(math.Log(hi) / math.Log(1+s.eps)))
	var next []sieveGuess
	var src []int // previous grid lane per new guess; -1 if none to migrate
	for j := jLo; j <= jHi; j++ {
		v := math.Pow(1+s.eps, float64(j))
		if v < lo/(1+s.eps) || v > hi*(1+s.eps) {
			continue
		}
		if gi, ok := existing[j]; ok {
			next = append(next, s.guesses[gi])
			src = append(src, s.guesses[gi].lane)
			continue
		}
		next = append(next, sieveGuess{v: v, lane: -1})
		src = append(src, -1)
	}
	lanes := make([]int, 0, len(next))
	for gi := range next {
		if len(next[gi].chosen) < s.k {
			lanes = append(lanes, gi)
		} else {
			next[gi].lane = -1
		}
	}
	if len(lanes) == 0 {
		s.guesses, s.lanes, s.grid, s.counts = next, nil, nil, nil
		return
	}
	grid := bitset.NewGrid(s.n, len(lanes))
	for l, gi := range lanes {
		if src[gi] >= 0 {
			grid.CopyLane(l, s.grid, src[gi])
		}
		next[gi].lane = l
	}
	s.guesses = next
	s.lanes = lanes
	s.grid = grid
	s.counts = grid.MakeCounts()
}

// EndPass implements stream.PassAlgorithm: single pass.
func (s *Sieve) EndPass() bool {
	s.done = true
	return true
}

// Space implements stream.PassAlgorithm: each live guess pays its covered
// bitset (n words, matching the package-wide flag accounting) plus its
// partial solution.
func (s *Sieve) Space() int {
	sp := 0
	for _, g := range s.guesses {
		sp += s.n + len(g.chosen)
	}
	return sp
}

// Result returns the best guess's chosen IDs and their sampled coverage
// count.
func (s *Sieve) Result() (chosen []int, covered int) {
	best := -1
	for gi := range s.guesses {
		if s.guesses[gi].count > covered || best < 0 {
			best = gi
			covered = s.guesses[gi].count
		}
	}
	if best < 0 {
		return nil, 0
	}
	out := append([]int(nil), s.guesses[best].chosen...)
	sort.Ints(out)
	return out, covered
}
