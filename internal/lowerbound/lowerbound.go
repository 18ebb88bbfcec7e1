// Package lowerbound operationalizes the paper's lower bounds (Theorems 1,
// 3, 4 and 5) as measurable experiments.
//
// A lower bound quantifies over all algorithms and cannot be "run"; what it
// predicts, however, is that the *natural optimal strategy* — the one the
// proof shows is unavoidable — succeeds iff its space budget reaches the
// bound. For D_SC that strategy is per-pair complement sampling: deciding
// θ means finding whether some pair (S_i, T_i) covers the universe, i.e.
// whether the complements f_i(A_i) and f_i(B_i) are disjoint; detecting the
// single shared block of n/t elements inside a complement of ≈ n/3 elements
// requires ≈ t/3·ln m retained samples per pair, Θ̃(m·t) = Θ̃(m·n^{1/α})
// words in total, and p passes divide the requirement by p (each pass
// handles m/p pairs with the full per-pair sample). For D_MC the strategy
// estimates the intersection fraction |A_i∩B_i|/|A_i|, whose gap is Θ(ε),
// requiring ≈ ln m/ε² samples per pair and Θ̃(m/ε²) words in total.
//
// Experiments sweep the budget through the predicted threshold and observe
// the success transition (E2, E4, E5).
package lowerbound

import (
	"slices"

	"streamcover/internal/rng"
	"streamcover/internal/stream"
)

// SCConfig configures the set cover θ-distinguisher.
type SCConfig struct {
	// Budget is the retained-words budget per pass.
	Budget int
	// Passes splits the pair indices into this many groups, one per pass;
	// each group gets the full budget (the Theorem 1 space/passes tradeoff).
	Passes int
}

// SCDistinguisher decides θ for a streamed D_SC instance within a space
// budget. It implements stream.PassAlgorithm; after the driver finishes,
// Decide returns the guess.
//
// Streaming convention: set IDs [0,m) are the S_i, IDs [m,2m) are the T_i
// (the D_SC construction); arrival order and ownership are irrelevant, so
// the same algorithm serves the adversarial and random-arrival experiments.
type SCDistinguisher struct {
	n, m int
	cfg  SCConfig
	r    *rng.RNG

	pass      int
	assigned  []int         // pair indices handled this pass
	perPair   int           // sample words per handled pair
	samples   map[int][]int // pair -> retained complement sample (first side seen)
	sampWords int
	checked   map[int]bool // pair -> fully evaluated
	zeroHit   bool         // some evaluated pair had zero complement collisions
	done      bool
}

// NewSCDistinguisher builds a distinguisher for a D_SC stream with universe
// n and m pairs (2m sets).
func NewSCDistinguisher(n, mPairs int, cfg SCConfig, r *rng.RNG) *SCDistinguisher {
	if cfg.Passes < 1 {
		cfg.Passes = 1
	}
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	return &SCDistinguisher{
		n: n, m: mPairs, cfg: cfg, r: r,
		samples: map[int][]int{},
		checked: map[int]bool{},
	}
}

// BeginPass implements stream.PassAlgorithm.
func (d *SCDistinguisher) BeginPass(pass int) {
	d.pass = pass
	d.samples = map[int][]int{}
	d.sampWords = 0
	d.assigned = d.assigned[:0]
	for i := pass; i < d.m; i += d.cfg.Passes {
		d.assigned = append(d.assigned, i)
	}
	if len(d.assigned) == 0 {
		d.perPair = 0
		return
	}
	d.perPair = d.cfg.Budget / len(d.assigned)
	if d.perPair == 0 && d.cfg.Budget > 0 {
		// Not even one word per assigned pair: handle only the first Budget
		// pairs of the group with one word each.
		d.assigned = d.assigned[:min(d.cfg.Budget, len(d.assigned))]
		d.perPair = 1
	}
}

func (d *SCDistinguisher) handles(pair int) bool {
	if d.perPair == 0 {
		return false
	}
	// assigned is the arithmetic progression pass, pass+P, ... possibly
	// truncated; membership is a range-and-stride check.
	if pair%d.cfg.Passes != d.pass%d.cfg.Passes {
		return false
	}
	idx := (pair - d.pass%d.cfg.Passes) / d.cfg.Passes
	return idx < len(d.assigned)
}

// Observe implements stream.PassAlgorithm.
func (d *SCDistinguisher) Observe(item stream.Item) {
	pair := item.ID
	if pair >= d.m {
		pair -= d.m
	}
	if d.checked[pair] || !d.handles(pair) {
		return
	}
	if samp, seen := d.samples[pair]; seen {
		// Second side of the pair: count retained complement elements that
		// are also missing from this side — collisions witness f(A∩B) ≠ ∅.
		hits := 0
		for _, e := range samp {
			if _, in := slices.BinarySearch(item.Elems, int32(e)); !in {
				hits++
			}
		}
		if hits == 0 {
			d.zeroHit = true
		}
		d.sampWords -= len(samp)
		delete(d.samples, pair)
		d.checked[pair] = true
		return
	}
	// First side: retain up to perPair uniform elements of the complement.
	samp := d.r.SampleComplement(d.n, item.Elems, d.perPair)
	if len(samp) == 0 {
		// The set is the whole universe: its pair trivially covers; treat as
		// a zero-hit witness (opt = 2 via this set alone plus anything).
		d.zeroHit = true
		d.checked[pair] = true
		return
	}
	d.samples[pair] = samp
	d.sampWords += len(samp)
}

// EndPass implements stream.PassAlgorithm.
func (d *SCDistinguisher) EndPass() bool {
	d.done = d.pass+1 >= d.cfg.Passes
	return d.done
}

// Space implements stream.PassAlgorithm: retained sample words plus one
// word per evaluated pair verdict.
func (d *SCDistinguisher) Space() int {
	return d.sampWords + len(d.checked)
}

// Decide returns the θ guess: 1 iff some fully-observed pair showed zero
// complement collisions (its complements look disjoint, so the pair covers
// the universe).
func (d *SCDistinguisher) Decide() int {
	if d.zeroHit {
		return 1
	}
	return 0
}

// MCConfig configures the maximum coverage θ-distinguisher.
type MCConfig struct {
	// Budget is the retained-words budget per pass.
	Budget int
	// Passes splits pair indices into groups as in SCConfig.
	Passes int
	// T1 is the GHD universe size t1 (elements [0,t1) of the stream's
	// universe); public knowledge of the D_MC construction.
	T1 int
}

// MCDistinguisher decides θ for a streamed D_MC instance within a space
// budget, by estimating the intersection fraction |A_i ∩ B_i| / |A_i| of
// every pair: under θ=1 the starred pair's fraction is below 1/2 − Θ(ε),
// all other pairs sit above 1/2 + Θ(ε).
type MCDistinguisher struct {
	m   int
	cfg MCConfig
	r   *rng.RNG

	pass      int
	assigned  int // number of pairs assigned this pass (stride layout)
	perPair   int
	samples   map[int][]int
	sampWords int
	checked   map[int]bool
	sawLow    bool
	done      bool
}

// NewMCDistinguisher builds a distinguisher for a D_MC stream with m pairs.
func NewMCDistinguisher(mPairs int, cfg MCConfig, r *rng.RNG) *MCDistinguisher {
	if cfg.Passes < 1 {
		cfg.Passes = 1
	}
	return &MCDistinguisher{
		m: mPairs, cfg: cfg, r: r,
		samples: map[int][]int{},
		checked: map[int]bool{},
	}
}

// BeginPass implements stream.PassAlgorithm.
func (d *MCDistinguisher) BeginPass(pass int) {
	d.pass = pass
	d.samples = map[int][]int{}
	d.sampWords = 0
	count := 0
	for i := pass; i < d.m; i += d.cfg.Passes {
		count++
	}
	d.assigned = count
	if count == 0 {
		d.perPair = 0
		return
	}
	d.perPair = d.cfg.Budget / count
	if d.perPair == 0 && d.cfg.Budget > 0 {
		d.assigned = min(d.cfg.Budget, count)
		d.perPair = 1
	}
}

func (d *MCDistinguisher) handles(pair int) bool {
	if d.perPair == 0 {
		return false
	}
	if pair%d.cfg.Passes != d.pass%d.cfg.Passes {
		return false
	}
	idx := (pair - d.pass%d.cfg.Passes) / d.cfg.Passes
	return idx < d.assigned
}

// u1Prefix returns the portion of a sorted set view within U1 = [0, t1).
func (d *MCDistinguisher) u1Prefix(elems []int32) []int32 {
	hi, _ := slices.BinarySearch(elems, int32(d.cfg.T1))
	return elems[:hi]
}

// Observe implements stream.PassAlgorithm.
func (d *MCDistinguisher) Observe(item stream.Item) {
	pair := item.ID
	if pair >= d.m {
		pair -= d.m
	}
	if d.checked[pair] || !d.handles(pair) {
		return
	}
	if samp, seen := d.samples[pair]; seen {
		// Retained samples are all inside U1, and sets are sorted, so
		// membership in the full set equals membership in its U1 prefix.
		hits := 0
		for _, e := range samp {
			if _, in := slices.BinarySearch(item.Elems, int32(e)); in {
				hits++
			}
		}
		if 2*hits < len(samp) {
			// Estimated intersection fraction below 1/2: the GHD pair looks
			// far apart ⇒ big union ⇒ candidate starred pair.
			d.sawLow = true
		}
		d.sampWords -= len(samp)
		delete(d.samples, pair)
		d.checked[pair] = true
		return
	}
	u1 := d.u1Prefix(item.Elems)
	want := d.perPair
	if want > len(u1) {
		want = len(u1)
	}
	if want == 0 {
		d.checked[pair] = true
		return
	}
	samp := make([]int, want)
	for i, idx := range d.r.KSubset(len(u1), want) {
		samp[i] = int(u1[idx])
	}
	d.samples[pair] = samp
	d.sampWords += want
}

// EndPass implements stream.PassAlgorithm.
func (d *MCDistinguisher) EndPass() bool {
	d.done = d.pass+1 >= d.cfg.Passes
	return d.done
}

// Space implements stream.PassAlgorithm.
func (d *MCDistinguisher) Space() int {
	return d.sampWords + len(d.checked)
}

// Decide returns the θ guess: 1 iff some pair's estimated intersection
// fraction fell below 1/2.
func (d *MCDistinguisher) Decide() int {
	if d.sawLow {
		return 1
	}
	return 0
}
