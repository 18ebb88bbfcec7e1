package offline

import (
	"context"

	"streamcover/internal/bitset"
	"streamcover/internal/parallel"
	"streamcover/internal/setsystem"
)

// MaxCoverGreedy returns the classical greedy (1−1/e)-approximate maximum
// k-coverage: the chosen set indices and the number of covered elements.
// Fewer than k sets are returned if the whole union is covered early.
func MaxCoverGreedy(in *setsystem.Instance, k int) ([]int, int) {
	return MaxCoverGreedyWorkers(in, k, 1)
}

// MaxCoverGreedyWorkers is MaxCoverGreedy with the per-round candidate gain
// scan fanned out across workers (<= 0 selects GOMAXPROCS, matching the
// convention of core.Config.Workers): each round evaluates every candidate's
// marginal coverage concurrently and takes the deterministic argmax (highest
// gain, lowest index on ties — the same set the sequential scan picks), so
// the chosen cover is bit-identical at every worker count.
func MaxCoverGreedyWorkers(in *setsystem.Instance, k, workers int) ([]int, int) {
	w := parallel.Workers(workers)
	covered := bitset.New(in.N)
	sets := in.Bitsets()
	var chosen []int
	total := 0
	for len(chosen) < k {
		best, gain := parallel.ArgMax(w, len(sets), func(i int) int {
			return sets[i].AndNotCount(covered)
		})
		if best < 0 || gain == 0 {
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
	greedyChosen, greedyCov := MaxCoverGreedy(in, k)
	e := &mcSearcher{
		sets:    in.Bitsets(),
		sizes:   make([]int, in.M()),
		budget:  budget,
		ctx:     cfg.Context,
		bestCov: greedyCov,
		best:    append([]int(nil), greedyChosen...),
	}
	for i := range e.sizes {
		e.sizes[i] = in.SetLen(i)
	}
	covered := bitset.New(in.N)
	if err := e.dfs(0, k, covered, 0); err != nil {
		return nil, 0, err
	}
	return e.best, e.bestCov, nil
}

type mcSearcher struct {
	sets    []*bitset.Bitset
	sizes   []int
	budget  int64
	nodes   int64
	ctx     context.Context // polled every ctxPollMask+1 nodes; nil = never
	best    []int
	bestCov int
	stack   []int
}

// dfs tries choosing sets from index `from` with `k` picks remaining.
func (e *mcSearcher) dfs(from, k int, covered *bitset.Bitset, cov int) error {
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
	if ub := cov + sumKLargest(e.sizes[from:], k); ub <= e.bestCov {
		return nil
	}
	for i := from; i < len(e.sets); i++ {
		gain := e.sets[i].AndNotCount(covered)
		if cov+gain+sumKLargest(e.sizes[i+1:], k-1) <= e.bestCov {
			continue
		}
		next := covered.Clone()
		next.Or(e.sets[i])
		e.stack = append(e.stack, i)
		if err := e.dfs(i+1, k-1, next, cov+gain); err != nil {
			return err
		}
		e.stack = e.stack[:len(e.stack)-1]
	}
	return nil
}

func sumKLargest(sizes []int, k int) int {
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
	top := make([]int, 0, k)
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
