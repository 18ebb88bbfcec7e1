// Package maxcover implements streaming maximum k-coverage.
//
// The paper's Section 3.4 uses (1−ε)-approximate maximum coverage with very
// small ε as the per-iteration subroutine of streaming set cover, and its
// Theorem 4 proves any such algorithm needs Ω̃(m/ε²) space. SampledKCover is
// the matching upper bound: element sampling in the style of McGregor–Vu
// (ICDT 2017) and Bateni et al. It projects every set onto a random sample
// of Θ(k·ln m/ε²) universe elements (one pass, Õ(m·k/ε²) words total) and
// solves maximum coverage on the sample offline: a (1−ε)-approximation
// w.h.p., matching the Ω̃(m/ε²) lower bound up to the k factor.
package maxcover

import (
	"context"
	"math"
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

	sample  *bitset.Grid // the sampled universe elements, one lane
	sampled int          // |sample|
	// Stored projections in CSR form (flat arena + offsets), as in core.Run:
	// the one-pass Observe path appends to flat slices instead of allocating
	// a slice per projected set. Elements stay universe IDs until EndPass
	// ranks them in the sample.
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
	sample := a.r.KSubset(a.n, a.SampleSize())
	a.sample, a.sampled = bitset.NewGrid(a.n, 1), len(sample)
	for _, e := range sample {
		a.sample.Set(0, e)
	}
	a.projOffs = append(a.projOffs[:0], 0)
}

// Observe implements stream.PassAlgorithm: it stores the item's sampled
// elements, in order.
func (a *SampledKCover) Observe(item stream.Item) {
	if a.done {
		return
	}
	start := len(a.projElems)
	a.projElems = a.sample.LaneFilterElemsAppend(0, a.projElems, item.Elems)
	if len(a.projElems) > start {
		a.projIDs = append(a.projIDs, item.ID)
		a.projOffs = append(a.projOffs, len(a.projElems))
	}
}

// EndPass implements stream.PassAlgorithm: it ranks the stored elements in
// the sample, which compacts the sampled universe to [0, |sample|) and
// keeps each projection sorted, and solves the sampled instance, a
// zero-copy view of the flat projection arena.
func (a *SampledKCover) EndPass() bool {
	a.sample.LaneRankElems(0, a.projElems)
	sub := setsystem.CSRView(a.sampled, a.projOffs, a.projElems)
	var picked []int
	if a.cfg.Exact {
		chosen, _, err := offline.MaxCoverExact(sub, a.cfg.K, offline.ExactConfig{Context: a.cfg.Context})
		if err != nil {
			a.err = err
			a.done = true
			return true
		}
		picked = chosen
	} else {
		picked, _ = offline.MaxCoverGreedy(sub, a.cfg.K)
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
	return a.sampled + len(a.projIDs) + len(a.projElems) + len(a.chosen)
}

// Result returns the chosen set IDs and any sub-solver error.
func (a *SampledKCover) Result() ([]int, error) {
	return append([]int(nil), a.chosen...), a.err
}
