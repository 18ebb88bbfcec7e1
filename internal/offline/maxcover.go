package offline

import (
	"context"

	"streamcover/internal/bitset"
	"streamcover/internal/setsystem"
)

// MaxCoverGreedy returns the classical greedy (1−1/e)-approximate maximum
// k-coverage: the chosen set indices and the number of covered elements.
// Each round takes the set of largest marginal gain, the lowest index on
// ties. Fewer than k sets are returned if the whole union is covered early.
func MaxCoverGreedy(in *setsystem.Instance, k int) ([]int, int) {
	return maxCoverGreedy(in.Bitsets(), in.N, k)
}

// maxCoverGreedy is MaxCoverGreedy over built set bitsets, which
// MaxCoverExact shares with its search.
func maxCoverGreedy(sets []*bitset.Bitset, n, k int) ([]int, int) {
	covered := bitset.New(n)
	var chosen []int
	total := 0
	for len(chosen) < k {
		best, gain := -1, 0
		for i, s := range sets {
			if g := s.AndNotCount(covered); g > gain {
				best, gain = i, g
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		covered.Or(sets[best])
		total += gain
	}
	return chosen, total
}

// MaxCoverExact returns an optimal k-coverage by branch-and-bound over set
// choices with a greedy-completion upper bound. Intended for small k; it
// returns ErrBudget if the node budget is exceeded.
func MaxCoverExact(in *setsystem.Instance, k int, cfg ExactConfig) ([]int, int, error) {
	if err := pollCtx(cfg.Context); err != nil {
		return nil, 0, err
	}
	if k <= 0 || in.M() == 0 {
		return nil, 0, nil
	}
	if k >= in.M() {
		all := make([]int, in.M())
		for i := range all {
			all[i] = i
		}
		return all, in.CoverageOf(all), nil
	}
	budget := cfg.NodeBudget
	if budget == 0 {
		budget = defaultNodeBudget
	}
	sets := in.Bitsets()
	e := &mcSearcher{
		n:      in.N,
		sets:   sets,
		sizes:  make([]int, in.M()),
		budget: budget,
		ctx:    cfg.Context,
		stack:  make([]int, 0, k),
		top:    make([]int, 0, k),
	}
	e.best, e.bestCov = maxCoverGreedy(sets, in.N, k)
	for i := range e.sizes {
		e.sizes[i] = in.SetLen(i)
	}
	if err := e.dfs(0, k, bitset.New(in.N), 0, 0); err != nil {
		return nil, 0, err
	}
	return e.best, e.bestCov, nil
}

type mcSearcher struct {
	n       int
	sets    []*bitset.Bitset
	sizes   []int
	budget  int64
	nodes   int64
	ctx     context.Context // polled every ctxPollMask+1 nodes; nil = never
	best    []int
	bestCov int
	stack   []int
	top     []int            // sumKLargest's selection buffer
	scratch []*bitset.Bitset // per-depth covered sets (scratchAt)
}

// scratchAt returns the depth-d covered scratch bitset, growing the pool
// on first descent to that depth.
func (e *mcSearcher) scratchAt(depth int) *bitset.Bitset {
	for len(e.scratch) <= depth {
		e.scratch = append(e.scratch, bitset.New(e.n))
	}
	return e.scratch[depth]
}

// dfs tries choosing sets from index `from` with `k` picks remaining, with
// depth indexing the scratch pool.
func (e *mcSearcher) dfs(from, k int, covered *bitset.Bitset, cov, depth int) error {
	e.nodes++
	if e.nodes > e.budget {
		return ErrBudget
	}
	if e.nodes&ctxPollMask == 0 {
		if err := pollCtx(e.ctx); err != nil {
			return err
		}
	}
	if cov > e.bestCov {
		e.bestCov = cov
		e.best = append(e.best[:0], e.stack...)
	}
	if k == 0 || from >= len(e.sets) {
		return nil
	}
	// Upper bound: current coverage + the k largest remaining set sizes
	// (each gain is at most the set's size).
	if ub := cov + sumKLargest(e.sizes[from:], k, e.top); ub <= e.bestCov {
		return nil
	}
	for i := from; i < len(e.sets); i++ {
		gain := e.sets[i].AndNotCount(covered)
		if cov+gain+sumKLargest(e.sizes[i+1:], k-1, e.top) <= e.bestCov {
			continue
		}
		next := e.scratchAt(depth)
		next.CopyFrom(covered)
		next.Or(e.sets[i])
		e.stack = append(e.stack, i)
		if err := e.dfs(i+1, k-1, next, cov+gain, depth+1); err != nil {
			return err
		}
		e.stack = e.stack[:len(e.stack)-1]
	}
	return nil
}

// sumKLargest returns the sum of the k largest sizes, selecting them in
// top[:0], which needs capacity k to stay allocation-free.
func sumKLargest(sizes []int, k int, top []int) int {
	if k <= 0 {
		return 0
	}
	if k >= len(sizes) {
		total := 0
		for _, s := range sizes {
			total += s
		}
		return total
	}
	// Small k in practice: selection by repeated max.
	top = top[:0]
	for _, s := range sizes {
		if len(top) < k {
			top = append(top, s)
			continue
		}
		mi, mv := 0, top[0]
		for i, v := range top[1:] {
			if v < mv {
				mi, mv = i+1, v
			}
		}
		if s > mv {
			top[mi] = s
		}
	}
	total := 0
	for _, s := range top {
		total += s
	}
	return total
}
