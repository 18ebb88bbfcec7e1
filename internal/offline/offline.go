// Package offline provides non-streaming set cover and maximum coverage
// solvers.
//
// The streaming model does not charge for computation, and Algorithm 1 of
// the paper requires an *optimal* cover of each (small) sampled sub-instance
// (step 3(c)); this package supplies that exact solver as a depth-bounded
// branch-and-bound, alongside the classical greedy (ln n)-approximation used
// as a baseline and fallback, and greedy/exact maximum-k-coverage solvers
// used by the maximum coverage experiments.
package offline

import (
	"context"
	"errors"

	"streamcover/internal/bitset"
	"streamcover/internal/setsystem"
)

// ctxPollMask spaces the solvers' cancellation polls: the context is checked
// once every ctxPollMask+1 units of work (search nodes, heap pops), keeping
// the poll off the per-node hot path while bounding the latency between a
// cancel and the solver returning.
const ctxPollMask = 4096 - 1

// pollCtx reports the context's error if it is done; a nil context never
// cancels.
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// ErrInfeasible is returned when the instance admits no set cover at all.
var ErrInfeasible = errors.New("offline: universe is not coverable by the given sets")

// ErrBudget is returned when an exact search exceeds its node budget.
var ErrBudget = errors.New("offline: exact search exceeded its node budget")

// Greedy returns the classical greedy set cover: repeatedly pick the set
// covering the most uncovered elements. Ties break toward the lower index.
// It implements lazy (heap-based) evaluation, so the running time is
// O(Σ|S_i| log m) rather than O(opt·m·n).
func Greedy(in *setsystem.Instance) ([]int, error) {
	return greedyOn(nil, in, nil)
}

// GreedyContext is Greedy with cancellation: the selection loop polls ctx
// periodically and returns ctx.Err() once it is done. A nil ctx never
// cancels.
func GreedyContext(ctx context.Context, in *setsystem.Instance) ([]int, error) {
	return greedyOn(ctx, in, nil)
}

// greedyOn is the lazy greedy behind every entry point. sets are the
// instance's set bitsets when the caller already built them (CoverAtMost
// shares one build with its search); nil builds them here.
func greedyOn(ctx context.Context, in *setsystem.Instance, sets []*bitset.Bitset) ([]int, error) {
	if err := pollCtx(ctx); err != nil {
		return nil, err
	}
	remaining := in.N
	if remaining == 0 {
		return nil, nil
	}
	uncovered := bitset.New(in.N)
	uncovered.Fill()

	if sets == nil {
		sets = in.Bitsets()
	}
	h := make(gainHeap, 0, len(sets))
	for i, s := range sets {
		if g := s.AndCount(uncovered); g > 0 {
			h = append(h, gainEntry{set: i, gain: g})
		}
	}
	h.init()

	var cover []int
	pops := 0
	for remaining > 0 {
		if pops++; pops&ctxPollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return nil, err
			}
		}
		if len(h) == 0 {
			return nil, ErrInfeasible
		}
		top := h.pop()
		// Lazy re-evaluation: the stored gain may be stale.
		g := sets[top.set].AndCount(uncovered)
		if g == 0 {
			continue
		}
		if len(h) > 0 && g < h[0].gain {
			h.push(gainEntry{set: top.set, gain: g})
			continue
		}
		cover = append(cover, top.set)
		uncovered.AndNot(sets[top.set])
		remaining -= g
	}
	return cover, nil
}

type gainEntry struct{ set, gain int }

// gainHeap is a binary max-heap on gain, tie-breaking toward lower set
// index, over unboxed entries. Each set is in the heap at most once, so
// the order is strict and total: the pop sequence, and with it greedy's
// pick order, does not depend on how the heap arranges its entries.
type gainHeap []gainEntry

// before reports whether entry i pops before entry j.
func (h gainHeap) before(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].set < h[j].set
}

// init establishes the heap order over the entries in O(len).
func (h gainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *gainHeap) push(e gainEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *gainHeap) pop() gainEntry {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

func (h gainHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.before(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h gainHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.before(r, j) {
			j = r
		}
		if !h.before(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// ExactConfig controls the branch-and-bound search.
type ExactConfig struct {
	// NodeBudget bounds the number of search nodes; 0 means a default of
	// 50 million, which is ample for the sampled sub-instances Algorithm 1
	// produces. The search returns ErrBudget when exceeded.
	NodeBudget int64
	// Context, when non-nil, makes the search cancellable: the solvers poll
	// it every few thousand search nodes (and the greedy front-end polls per
	// selection batch) and return its error once it is done. A nil Context
	// never cancels — the pre-cancellation behavior.
	Context context.Context
}

const defaultNodeBudget = 50_000_000

// CoverAtMost searches for a set cover of size ≤ k. It returns the cover and
// ok=true if one exists, ok=false if provably none exists within size k, and
// ErrBudget if the node budget ran out before deciding.
func CoverAtMost(in *setsystem.Instance, k int, cfg ExactConfig) (cover []int, ok bool, err error) {
	d := deepener{in: in, cfg: cfg}
	return d.coverAtMost(k)
}

// deepener answers CoverAtMost for one instance at any number of k, as
// iterative deepening asks it: the set bitsets, the greedy bound and the
// search index are built at most once, on the first k that needs them.
// Every k still polls the context on entry and searches on a fresh node
// budget, exactly as a separate CoverAtMost call would.
type deepener struct {
	in     *setsystem.Instance
	cfg    ExactConfig
	sets   []*bitset.Bitset // nil until first needed
	greedy []int
	gerr   error
	s      *searcher // nil until a k greedy cannot settle
}

// bound builds the set bitsets and runs greedy over them, once.
func (d *deepener) bound() ([]int, error) {
	if d.sets == nil {
		d.sets = d.in.Bitsets()
		d.greedy, d.gerr = greedyOn(d.cfg.Context, d.in, d.sets)
	}
	return d.greedy, d.gerr
}

func (d *deepener) coverAtMost(k int) ([]int, bool, error) {
	if k < 0 {
		return nil, false, nil
	}
	budget := d.cfg.NodeBudget
	if budget == 0 {
		budget = defaultNodeBudget
	}
	if err := pollCtx(d.cfg.Context); err != nil {
		return nil, false, err
	}
	// Volume certificate: k sets of at most max|S| elements each cannot
	// cover N > k·max|S| elements. This is the search root's own volume
	// test, taken before anything is built, so a too-small guess costs
	// O(m) and no allocation. A budget below one node skips it: the search
	// root must still report ErrBudget.
	if d.in.N > 0 && budget >= 1 && k < lowerBound(d.in) {
		return nil, false, nil
	}
	// Greedy-first: any cover of size ≤ k certifies "yes" — only when greedy
	// overshoots must the exhaustive search decide. This keeps generous-k
	// queries (Algorithm 1's per-iteration sub-solves) polynomial in
	// practice while preserving completeness.
	if g, gerr := d.bound(); gerr == nil && len(g) <= k {
		return g, true, nil
	} else if gerr != nil && gerr != ErrInfeasible {
		return nil, false, gerr
	}
	if d.s == nil {
		d.s = newSearcher(d.in, d.sets, budget)
		d.s.ctx = d.cfg.Context
	}
	uncovered := bitset.New(d.in.N)
	uncovered.Fill()
	if uncovered.Empty() {
		return nil, true, nil
	}
	d.s.nodes = 0
	found, err := d.s.search(uncovered, k)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	return append([]int(nil), d.s.best...), true, nil
}

// Exact computes an optimal set cover by iterative deepening over the cover
// size, starting from a lower bound and capped by greedy's solution. The
// instance is first dominance-reduced (subsumed sets cannot appear in some
// optimal cover without a superset substitute), which often shrinks the
// search substantially. It returns the optimum cover (original indices), or
// ErrInfeasible / ErrBudget.
func Exact(in *setsystem.Instance, cfg ExactConfig) ([]int, error) {
	red, kept := setsystem.ReduceDominated(in)
	cover, err := exactOn(red, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(cover))
	for i, ri := range cover {
		out[i] = kept[ri]
	}
	return out, nil
}

func exactOn(in *setsystem.Instance, cfg ExactConfig) ([]int, error) {
	d := deepener{in: in, cfg: cfg}
	greedy, err := d.bound()
	if err != nil {
		return nil, err
	}
	for k := lowerBound(in); k <= len(greedy); k++ {
		cover, ok, err := d.coverAtMost(k)
		if err != nil {
			return nil, err
		}
		if ok {
			return cover, nil
		}
	}
	return greedy, nil
}

// OptAtMost decides min(opt, k+1): it returns opt if opt ≤ k, and k+1
// otherwise. This is the primitive the hard-instance experiments need
// (Lemma 3.2 checks opt > 2α without computing opt exactly).
func OptAtMost(in *setsystem.Instance, k int, cfg ExactConfig) (int, error) {
	d := deepener{in: in, cfg: cfg}
	for size := 0; size <= k; size++ {
		_, ok, err := d.coverAtMost(size)
		if err != nil {
			return 0, err
		}
		if ok {
			return size, nil
		}
	}
	return k + 1, nil
}

// lowerBound returns a cheap lower bound on opt: ceil(n / max set size).
func lowerBound(in *setsystem.Instance) int {
	max := 0
	for i := 0; i < in.M(); i++ {
		if l := in.SetLen(i); l > max {
			max = l
		}
	}
	if max == 0 {
		return 1
	}
	lb := (in.N + max - 1) / max
	if lb < 1 {
		lb = 1
	}
	return lb
}

type searcher struct {
	in   *setsystem.Instance
	sets []*bitset.Bitset
	// Element→sets occurrence index in CSR form: the candidate sets for
	// element e are occSets[occOffs[e]:occOffs[e+1]]. Built by two counting
	// passes over the instance arena — two flat arrays instead of in.N
	// independently append-grown slices.
	occOffs []int32 // len N+1
	occSets []int32
	maxSize int // largest |S_i|
	budget  int64
	nodes   int64
	ctx     context.Context // polled every ctxPollMask+1 nodes; nil = never
	best    []int
	stack   []int
	// scratch is the per-depth uncovered-bitset pool: dfs at depth d writes
	// its child's uncovered set into scratch[d] instead of cloning one
	// bitset per node. Frame d's input (scratch[d-1]) is only rewritten by
	// its parent between sibling branches, never below it, so the borrow is
	// safe; the pool grows to the search depth once and is reused for every
	// node after that — steady-state dfs allocates nothing.
	scratch []*bitset.Bitset
}

// newSearcher indexes the instance for dfs. sets are its set bitsets
// (Instance.Bitsets), which the searcher reads but never writes.
func newSearcher(in *setsystem.Instance, sets []*bitset.Bitset, budget int64) *searcher {
	s := &searcher{in: in, sets: sets, budget: budget}
	s.occOffs = make([]int32, in.N+1)
	for i := 0; i < in.M(); i++ {
		set := in.Set(i)
		if len(set) > s.maxSize {
			s.maxSize = len(set)
		}
		for _, e := range set {
			s.occOffs[e+1]++
		}
	}
	for e := 0; e < in.N; e++ {
		s.occOffs[e+1] += s.occOffs[e]
	}
	s.occSets = make([]int32, s.occOffs[in.N])
	cursor := make([]int32, in.N)
	copy(cursor, s.occOffs[:in.N])
	for i := 0; i < in.M(); i++ {
		for _, e := range in.Set(i) {
			s.occSets[cursor[e]] = int32(i)
			cursor[e]++
		}
	}
	return s
}

// occ returns the candidate-set list for element e (ascending set indices,
// as the fill order guarantees).
func (s *searcher) occ(e int) []int32 {
	return s.occSets[s.occOffs[e]:s.occOffs[e+1]]
}

// scratchAt returns the depth-d uncovered scratch bitset, growing the pool
// on first descent to that depth.
func (s *searcher) scratchAt(depth int) *bitset.Bitset {
	for len(s.scratch) <= depth {
		s.scratch = append(s.scratch, bitset.New(s.in.N))
	}
	return s.scratch[depth]
}

// search looks for a cover of `uncovered` using at most k sets.
func (s *searcher) search(uncovered *bitset.Bitset, k int) (bool, error) {
	return s.dfs(uncovered, uncovered.Count(), k, 0)
}

// dfs searches for a cover of `uncovered` (of size rem, tracked by
// popcount deltas rather than recounted per node) using at most k more
// sets, with depth indexing the scratch pool.
func (s *searcher) dfs(uncovered *bitset.Bitset, rem, k, depth int) (bool, error) {
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	if s.nodes&ctxPollMask == 0 {
		if err := pollCtx(s.ctx); err != nil {
			return false, err
		}
	}
	if rem == 0 {
		s.best = append(s.best[:0], s.stack...)
		return true, nil
	}
	if k == 0 || s.maxSize == 0 {
		return false, nil
	}
	// Volume bound: even k maximal sets cannot cover rem elements.
	if rem > k*s.maxSize {
		return false, nil
	}
	// Branch on the uncovered element with the fewest candidate sets
	// (explicit Next loop, not Range: a closure here would allocate on
	// every node).
	pivot, minCands := -1, int(^uint(0)>>1)
	for e := uncovered.Next(0); e >= 0; e = uncovered.Next(e + 1) {
		c := int(s.occOffs[e+1] - s.occOffs[e])
		if c < minCands {
			minCands, pivot = c, e
		}
		if c <= 1 { // stop early at a forced (or impossible) element
			break
		}
	}
	if pivot < 0 || minCands == 0 {
		return false, nil // some element is in no set
	}
	next := s.scratchAt(depth)
	for _, i := range s.occ(pivot) {
		gained := s.sets[i].AndCount(uncovered)
		if gained == 0 {
			continue
		}
		next.CopyFrom(uncovered)
		next.AndNot(s.sets[i])
		s.stack = append(s.stack, int(i))
		found, err := s.dfs(next, rem-gained, k-1, depth+1)
		s.stack = s.stack[:len(s.stack)-1]
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}
