package offline

import (
	"container/heap"
	"errors"
	"reflect"
	"testing"

	"streamcover/internal/bitset"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// refGreedy is the container/heap lazy greedy that the typed gain heap
// replaced, kept as the pick-order reference.
func refGreedy(in *setsystem.Instance) ([]int, error) {
	uncovered := bitset.New(in.N)
	uncovered.Fill()
	remaining := uncovered.Count()
	if remaining == 0 {
		return nil, nil
	}
	sets := make([]*bitset.Bitset, in.M())
	for i := range sets {
		sets[i] = in.Bitset(i)
	}
	h := &refHeap{}
	for i, s := range sets {
		if g := s.AndCount(uncovered); g > 0 {
			heap.Push(h, gainEntry{set: i, gain: g})
		}
	}
	var cover []int
	for remaining > 0 {
		if h.Len() == 0 {
			return nil, ErrInfeasible
		}
		top := heap.Pop(h).(gainEntry)
		g := sets[top.set].AndCount(uncovered)
		if g == 0 {
			continue
		}
		if h.Len() > 0 && g < (*h)[0].gain {
			heap.Push(h, gainEntry{set: top.set, gain: g})
			continue
		}
		cover = append(cover, top.set)
		uncovered.AndNot(sets[top.set])
		remaining -= g
	}
	return cover, nil
}

type refHeap []gainEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].set < h[j].set
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(gainEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestGreedyPickOrderMatchesReference pins greedy's pick order — not just
// its cover — to the container/heap reference on instances built for
// ties: equal-size sets over small universes, plus duplicated sets, so
// many entries share a gain and only the set-index tie-break orders them.
func TestGreedyPickOrderMatchesReference(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(120)
		m := 1 + r.Intn(80)
		size := 1 + r.Intn(min(n, 8))
		base := setsystem.Uniform(r, n, m, size, size)
		sets := make([][]int, 0, 2*m)
		for i := 0; i < base.M(); i++ {
			s := make([]int, 0, size)
			for _, e := range base.Set(i) {
				s = append(s, int(e))
			}
			sets = append(sets, s)
			if r.Bernoulli(0.3) {
				sets = append(sets, s)
			}
		}
		in := setsystem.FromSets(n, sets)

		want, werr := refGreedy(in)
		got, err := Greedy(in)
		if !errors.Is(err, werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Greedy = %v, %v; reference %v, %v", trial, got, err, want, werr)
		}
	}
}

// directSearch is CoverAtMost's search alone, without the volume
// certificate or the greedy bound in front of it.
func directSearch(in *setsystem.Instance, k int, budget int64) (bool, error) {
	u := bitset.New(in.N)
	u.Fill()
	if u.Empty() {
		return true, nil
	}
	return newSearcher(in, in.Bitsets(), budget).search(u, k)
}

// TestCoverAtMostMatchesDirectSearch checks that the volume certificate
// and the shared-bitset greedy bound only shortcut the search: for every
// k in [0, N] CoverAtMost decides exactly what the search alone decides,
// and any cover it returns has at most k sets. The instances include an
// empty universe and an element no set covers. With a node budget of -1
// the search cannot take a single node, so CoverAtMost must fail with
// ErrBudget exactly where greedy does not settle k — as it did before the
// certificate existed.
func TestCoverAtMostMatchesDirectSearch(t *testing.T) {
	r := rng.New(17)
	insts := []*setsystem.Instance{
		setsystem.FromSets(0, nil),
		setsystem.FromSets(0, [][]int{{}}),
		setsystem.FromSets(5, [][]int{{0, 1}, {1, 2}, {3}}), // element 4 uncovered
		setsystem.FromSets(3, [][]int{{}, {}}),
	}
	for i := 0; i < 40; i++ {
		n := 1 + r.Intn(24)
		insts = append(insts, setsystem.Uniform(r, n, 1+r.Intn(16), 1, 1+r.Intn(n)))
	}
	for i, in := range insts {
		for k := 0; k <= in.N; k++ {
			want, werr := directSearch(in, k, defaultNodeBudget)
			if werr != nil {
				t.Fatalf("instance %d k=%d: direct search: %v", i, k, werr)
			}
			cover, ok, err := CoverAtMost(in, k, ExactConfig{})
			if err != nil || ok != want {
				t.Fatalf("instance %d k=%d: CoverAtMost ok=%v err=%v, direct search %v", i, k, ok, err, want)
			}
			if ok && (len(cover) > k || !in.IsCover(cover)) {
				t.Fatalf("instance %d k=%d: returned %v, not a cover of size <= %d", i, k, cover, k)
			}

			g, gerr := Greedy(in)
			settled := gerr == nil && len(g) <= k
			cover, ok, err = CoverAtMost(in, k, ExactConfig{NodeBudget: -1})
			switch {
			case settled && (err != nil || !ok || !reflect.DeepEqual(cover, g)):
				t.Fatalf("instance %d k=%d budget -1: got %v ok=%v err=%v, want greedy's %v", i, k, cover, ok, err, g)
			case !settled && err != ErrBudget:
				t.Fatalf("instance %d k=%d budget -1: err = %v, want ErrBudget", i, k, err)
			}
		}
	}
}
