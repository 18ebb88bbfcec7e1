package offline

import (
	"context"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func TestGreedySimple(t *testing.T) {
	in := setsystem.FromSets(6, [][]int{
		{0, 1, 2, 3}, // greedy picks this first
		{0, 1},
		{2, 3},
		{4, 5},
		{3, 4},
	})
	cover, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(cover) {
		t.Fatalf("greedy output %v is not a cover", cover)
	}
	if len(cover) != 2 {
		t.Fatalf("greedy size %d, want 2 (%v)", len(cover), cover)
	}
	if cover[0] != 0 || cover[1] != 3 {
		t.Fatalf("greedy picked %v, want [0 3]", cover)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	in := setsystem.FromSets(3, [][]int{{0}, {1}})
	if _, err := Greedy(in); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	in := setsystem.FromSets(0, [][]int{{}})
	cover, err := Greedy(in)
	if err != nil || len(cover) != 0 {
		t.Fatalf("cover=%v err=%v", cover, err)
	}
}

func TestCoverAtMost(t *testing.T) {
	in := setsystem.FromSets(4, [][]int{{0, 1}, {2, 3}, {0}, {1}, {2}, {3}})
	if _, ok, err := CoverAtMost(in, 1, ExactConfig{}); err != nil || ok {
		t.Fatalf("size-1 cover reported: ok=%v err=%v", ok, err)
	}
	cover, ok, err := CoverAtMost(in, 2, ExactConfig{})
	if err != nil || !ok {
		t.Fatalf("size-2 cover missed: ok=%v err=%v", ok, err)
	}
	if !in.IsCover(cover) || len(cover) > 2 {
		t.Fatalf("bad cover %v", cover)
	}
}

func TestExactBeatsGreedyTrap(t *testing.T) {
	// Classic greedy trap: greedy picks the big set first and needs 3 sets,
	// optimum is 2.
	in := setsystem.FromSets(8, [][]int{
		{0, 1, 2, 3, 4}, // bait
		{0, 1, 2, 3},    // left half
		{4, 5, 6, 7},    // right half
	})
	greedy, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(in, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsCover(exact) {
		t.Fatalf("exact output not a cover: %v", exact)
	}
	if len(exact) != 2 {
		t.Fatalf("exact size %d, want 2", len(exact))
	}
	if len(greedy) < len(exact) {
		t.Fatalf("greedy %d beat exact %d", len(greedy), len(exact))
	}
}

func TestOptAtMost(t *testing.T) {
	in := setsystem.FromSets(6, [][]int{{0, 1}, {2, 3}, {4, 5}, {0}, {5}})
	opt, err := OptAtMost(in, 5, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if opt != 3 {
		t.Fatalf("opt = %d, want 3", opt)
	}
	// Capped below the optimum: reports k+1.
	capped, err := OptAtMost(in, 2, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if capped != 3 {
		t.Fatalf("capped opt = %d, want 3 (= k+1)", capped)
	}
}

func TestExactBudget(t *testing.T) {
	// Greedy overshoots k here (trap: bait set forces 3 greedy picks while
	// opt=2), so the exhaustive search must run and exceed the 1-node
	// budget on its first recursive call.
	in := setsystem.FromSets(8, [][]int{
		{1, 2, 3, 4, 5, 6}, // bait
		{0, 1, 2, 3},
		{4, 5, 6, 7},
	})
	if g, err := Greedy(in); err != nil || len(g) != 3 {
		t.Fatalf("precondition: greedy = %v, %v (want 3 sets)", g, err)
	}
	_, _, err := CoverAtMost(in, 2, ExactConfig{NodeBudget: 1})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestCoverAtMostGreedyShortCircuit(t *testing.T) {
	// With a generous k the greedy certificate avoids the search entirely:
	// even a 1-node budget succeeds.
	in := setsystem.FromSets(4, [][]int{{0, 1}, {2, 3}})
	cover, ok, err := CoverAtMost(in, 3, ExactConfig{NodeBudget: 1})
	if err != nil || !ok || len(cover) > 3 {
		t.Fatalf("cover=%v ok=%v err=%v", cover, ok, err)
	}
}

// Property: on random instances, exact ≤ greedy and both are feasible covers.
func TestQuickExactVsGreedy(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(20)
		m := 5 + r.Intn(15)
		in := setsystem.Uniform(r, n, m, 1, n/2+1)
		if !in.Coverable() {
			return true // nothing to compare
		}
		greedy, err := Greedy(in)
		if err != nil {
			return false
		}
		exact, err := Exact(in, ExactConfig{})
		if err != nil {
			return false
		}
		return in.IsCover(greedy) && in.IsCover(exact) && len(exact) <= len(greedy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPlantedExactFindsPlant(t *testing.T) {
	r := rng.New(3)
	in, planted := setsystem.PlantedCover(r, 60, 20, 3, 0.5)
	exact, err := Exact(in, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) > len(planted) {
		t.Fatalf("exact %d worse than planted %d", len(exact), len(planted))
	}
}

func TestMaxCoverGreedy(t *testing.T) {
	in := setsystem.FromSets(6, [][]int{{0, 1, 2}, {2, 3}, {4, 5}, {0}})
	chosen, cov := MaxCoverGreedy(in, 2)
	if len(chosen) != 2 || cov != 5 {
		t.Fatalf("greedy k=2: chosen=%v cov=%d, want cov 5", chosen, cov)
	}
	// k larger than needed: stops once everything is covered.
	chosen, cov = MaxCoverGreedy(in, 10)
	if cov != 6 {
		t.Fatalf("cov = %d, want 6", cov)
	}
	if len(chosen) > 3 {
		t.Fatalf("greedy picked redundant sets: %v", chosen)
	}
}

func TestMaxCoverPair(t *testing.T) {
	in := setsystem.FromSets(8, [][]int{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6, 7},
		{0, 1, 2, 3}, // with set 2: covers all 8
	})
	pair, cov, err := MaxCoverExact(in, 2, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(pair)
	if cov != 8 || !slices.Equal(pair, []int{2, 3}) {
		t.Fatalf("pair = %v covering %d, want [2 3] covering 8", pair, cov)
	}
}

func TestMaxCoverPairDegenerate(t *testing.T) {
	if pair, cov, err := MaxCoverExact(&setsystem.Instance{N: 5}, 2, ExactConfig{}); err != nil || len(pair) != 0 || cov != 0 {
		t.Fatalf("empty: %v %d %v", pair, cov, err)
	}
	pair, cov, err := MaxCoverExact(setsystem.FromSets(5, [][]int{{1, 2}}), 2, ExactConfig{})
	if err != nil || !slices.Equal(pair, []int{0}) || cov != 2 {
		t.Fatalf("single: %v %d %v", pair, cov, err)
	}
}

// pairScan is the exhaustive k = 2 reference: the best coverage of any
// two sets.
func pairScan(in *setsystem.Instance) int {
	best := 0
	for i := 0; i < in.M(); i++ {
		for j := i + 1; j < in.M(); j++ {
			best = max(best, in.CoverageOf([]int{i, j}))
		}
	}
	return best
}

func TestMaxCoverExactMatchesPairAndBeatsGreedy(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(20)
		m := 3 + r.Intn(10)
		in := setsystem.Uniform(r, n, m, 1, n/2+1)
		exact, exactCov, err := MaxCoverExact(in, 2, ExactConfig{})
		if err != nil {
			return false
		}
		if exactCov != pairScan(in) {
			return false
		}
		if got := in.CoverageOf(exact); got != exactCov {
			return false
		}
		_, greedyCov := MaxCoverGreedy(in, 2)
		return greedyCov <= exactCov
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCoverExactKGEM(t *testing.T) {
	in := setsystem.FromSets(4, [][]int{{0}, {1}})
	chosen, cov, err := MaxCoverExact(in, 5, ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cov != 2 || len(chosen) != 2 {
		t.Fatalf("k≥m case: chosen=%v cov=%d", chosen, cov)
	}
}

func TestSumKLargest(t *testing.T) {
	sizes := []int{3, 9, 1, 7, 5}
	cases := []struct{ k, want int }{{0, 0}, {1, 9}, {2, 16}, {3, 21}, {5, 25}, {10, 25}}
	for _, c := range cases {
		if got := sumKLargest(sizes, c.k); got != c.want {
			t.Errorf("sumKLargest(k=%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	in := setsystem.Uniform(rng.New(1), 2000, 500, 20, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Greedy(in)
	}
}

func BenchmarkExactSmall(b *testing.B) {
	in, _ := setsystem.PlantedCover(rng.New(2), 200, 40, 4, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Exact(in, ExactConfig{})
	}
}

// ctxCancelled returns an already-cancelled context.
func ctxCancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestContextCancelAtEntry(t *testing.T) {
	in := setsystem.FromSets(4, [][]int{{0, 1}, {2, 3}})
	ctx := ctxCancelled()
	if _, err := GreedyContext(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("GreedyContext err = %v, want context.Canceled", err)
	}
	if _, _, err := CoverAtMost(in, 2, ExactConfig{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CoverAtMost err = %v, want context.Canceled", err)
	}
	if _, err := Exact(in, ExactConfig{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exact err = %v, want context.Canceled", err)
	}
	if _, _, err := MaxCoverExact(in, 1, ExactConfig{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxCoverExact err = %v, want context.Canceled", err)
	}
}

// TestContextNilNeverCancels pins the compatibility contract: the zero
// ExactConfig (nil Context) behaves exactly as before cancellation existed.
func TestContextNilNeverCancels(t *testing.T) {
	in := setsystem.FromSets(4, [][]int{{0, 1}, {2, 3}})
	if cover, err := Exact(in, ExactConfig{}); err != nil || len(cover) != 2 {
		t.Fatalf("Exact = %v, %v", cover, err)
	}
}

// TestExactContextCancelMidSearch cancels a worst-case branch-and-bound
// from another goroutine and requires the search to return promptly with
// the context's error — the property that keeps a serving layer's
// Stop/SIGTERM from blocking on a hard exact job.
func TestExactContextCancelMidSearch(t *testing.T) {
	// Random small sets over a moderate universe: greedy overshoots and the
	// iterative-deepening search has a deep, bushy tree — far more than
	// ctxPollMask nodes, so the in-search poll (not the entry check) must
	// fire. Budget-unbounded: without cancellation this search would grind
	// for a very long time.
	r := rng.New(11)
	in := setsystem.Uniform(r, 64, 256, 3, 5)
	if _, err := Greedy(in); err != nil {
		t.Fatalf("precondition: instance not coverable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Exact(in, ExactConfig{Context: ctx})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Exact err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Exact did not return within 10s of cancellation")
	}
}
