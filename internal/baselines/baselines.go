// Package baselines implements the prior streaming set cover algorithms the
// paper positions itself against, in the same PassAlgorithm shape as the
// core Algorithm 1 so experiments can compare passes, space and cover
// quality directly (experiment E7):
//
//   - ProgressiveGreedy: the classical multi-pass threshold greedy in the
//     lineage of Saha–Getoor (SDM 2009), Cormode–Karloff–Wirth (CIKM 2010)
//     and Demaine et al. (DISC 2014): pass j picks every set that covers at
//     least |threshold_j| uncovered elements, with geometrically decaying
//     thresholds. With decay λ it uses ~log_λ(n) passes, O(n) words beyond
//     the solution, and approximates greedy within a factor λ (so ~λ·ln n
//     overall). Setting λ = n^{1/p} yields the few-pass/space-light but
//     approximation-heavy end of the spectrum.
//
//   - StoreAllGreedy: buffers the entire stream in one pass and runs offline
//     greedy — the space-maximal quality baseline (Θ(Σ|S_i|) words).
//
// The Har-Peled et al. (PODS 2016) iterative-sampling baseline is provided
// through core.Config{SampleExponent: 2/α, DisablePrune: true}; see package
// core.
package baselines

import (
	"math"
	"sort"

	"streamcover/internal/bitset"
	"streamcover/internal/offline"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// ProgressiveGreedy is the threshold-decay multi-pass greedy.
type ProgressiveGreedy struct {
	n         int
	lambda    float64
	threshold float64
	u         *bitset.Bitset
	uCount    int
	sol       []int
	done      bool
}

// NewProgressiveGreedy returns a progressive greedy over a universe of size
// n with threshold decay λ > 1 (λ = 2 is the classical choice; larger λ
// trades approximation for passes).
func NewProgressiveGreedy(n int, lambda float64) *ProgressiveGreedy {
	if lambda <= 1 {
		lambda = 2
	}
	return &ProgressiveGreedy{n: n, lambda: lambda}
}

// MaxPasses returns an upper bound on the passes needed: ⌈log_λ n⌉ + 2.
func (g *ProgressiveGreedy) MaxPasses() int {
	if g.n <= 1 {
		return 2
	}
	return int(math.Ceil(math.Log(float64(g.n))/math.Log(g.lambda))) + 2
}

// BeginPass implements stream.PassAlgorithm.
func (g *ProgressiveGreedy) BeginPass(pass int) {
	if pass == 0 {
		g.u = bitset.New(g.n)
		g.u.Fill()
		g.uCount = g.n
		g.threshold = float64(g.n) / g.lambda
	} else {
		g.threshold /= g.lambda
	}
	if g.threshold < 1 {
		g.threshold = 1
	}
}

// Observe implements stream.PassAlgorithm. The baseline always runs alone,
// so its items carry no shared run list and it probes element by element.
func (g *ProgressiveGreedy) Observe(item stream.Item) {
	if g.done || g.uCount == 0 {
		return
	}
	cnt := 0
	for _, e := range item.Elems {
		if g.u.Has(int(e)) {
			cnt++
		}
	}
	if cnt > 0 && float64(cnt) >= g.threshold {
		g.sol = append(g.sol, item.ID)
		for _, e := range item.Elems {
			if g.u.Has(int(e)) {
				g.u.Clear(int(e))
				g.uCount--
			}
		}
	}
}

// EndPass implements stream.PassAlgorithm. The run finishes when the
// universe is covered, or when a full pass at threshold 1 picked nothing
// (the remaining elements are uncoverable).
func (g *ProgressiveGreedy) EndPass() bool {
	if g.uCount == 0 {
		g.done = true
	} else if g.threshold <= 1 {
		// At threshold 1 every useful set is picked greedily within the
		// pass; leftovers are in no set.
		g.done = true
	}
	return g.done
}

// Space implements stream.PassAlgorithm: the uncovered bitset (n words, as
// in package core's accounting) plus the solution.
func (g *ProgressiveGreedy) Space() int {
	sp := len(g.sol)
	if g.u != nil {
		sp += g.n
	}
	return sp
}

// Result returns the cover and whether it is feasible.
func (g *ProgressiveGreedy) Result() (cover []int, feasible bool) {
	out := append([]int(nil), g.sol...)
	sort.Ints(out)
	return out, g.uCount == 0
}

// StoreAllGreedy buffers the whole stream (into a CSR arena, one flat copy)
// and solves offline.
type StoreAllGreedy struct {
	n     int
	ids   []int
	buf   *setsystem.Builder
	words int
	sol   []int
	ok    bool
	done  bool
}

// NewStoreAllGreedy returns the store-everything baseline for universe n.
func NewStoreAllGreedy(n int) *StoreAllGreedy {
	return &StoreAllGreedy{n: n, buf: setsystem.NewBuilder(n)}
}

// BeginPass implements stream.PassAlgorithm.
func (s *StoreAllGreedy) BeginPass(pass int) {}

// Observe implements stream.PassAlgorithm.
func (s *StoreAllGreedy) Observe(item stream.Item) {
	s.ids = append(s.ids, item.ID)
	s.buf.AddSet32(item.Elems)
	s.words += 1 + len(item.Elems)
}

// EndPass implements stream.PassAlgorithm: solves after the single pass.
func (s *StoreAllGreedy) EndPass() bool {
	cover, err := offline.Greedy(s.buf.Build())
	if err == nil {
		s.ok = true
		for _, local := range cover {
			s.sol = append(s.sol, s.ids[local])
		}
		sort.Ints(s.sol)
	}
	s.done = true
	return true
}

// Space implements stream.PassAlgorithm.
func (s *StoreAllGreedy) Space() int { return s.words + len(s.sol) }

// Result returns the cover and whether it is feasible.
func (s *StoreAllGreedy) Result() (cover []int, feasible bool) {
	return append([]int(nil), s.sol...), s.ok
}
