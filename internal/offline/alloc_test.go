package offline

import (
	"testing"

	"streamcover/internal/bitset"
	"streamcover/internal/hardinst"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// TestSearcherDFSSteadyStateAllocFree guards the exact search's allocation
// discipline: after one warm-up search has grown the per-depth scratch pool
// and the best/stack buffers, repeated searches on the same searcher must
// not allocate at all — the per-node bitset Clone of the old implementation
// is exactly the churn Algorithm 1's step-3(c) sub-solves (one per
// iteration per guess, concurrently under the parallel grid) cannot afford.
func TestSearcherDFSSteadyStateAllocFree(t *testing.T) {
	inst := setsystem.Uniform(rng.New(9), 64, 48, 6, 14)
	s := newSearcher(inst, inst.Bitsets(), defaultNodeBudget)
	full := bitset.New(inst.N)
	full.Fill()
	u := bitset.New(inst.N)

	run := func() {
		s.nodes = 0
		u.CopyFrom(full)
		found, err := s.search(u, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("expected a cover of size <= 10")
		}
	}
	run() // warm-up: grows the scratch pool to the search depth

	allocs := testing.AllocsPerRun(20, run)
	if allocs > 0 {
		t.Fatalf("steady-state dfs allocates %.2f objects per search", allocs)
	}
}

// TestCoverAtMostAllocsFlatInM pins the sub-solve's build cost: one
// bitset arena shared by the greedy bound and the search, and an unboxed
// gain heap, so a greedy-settled CoverAtMost allocates the same handful
// of objects at any set count — two per set would mean per-set bitsets
// are back. A k below the volume bound is rejected before anything is
// built and allocates nothing.
func TestCoverAtMostAllocsFlatInM(t *testing.T) {
	const n, opt = 2048, 6
	settled := func(m int) float64 {
		inst, _ := setsystem.PlantedCover(rng.New(3), n, m, opt, 0.5)
		var cover []int
		var ok bool
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if cover, ok, err = CoverAtMost(inst, opt, ExactConfig{}); err != nil {
				t.Fatal(err)
			}
		})
		if g, _ := Greedy(inst); !ok || len(g) > opt || !inst.IsCover(cover) {
			t.Fatalf("m=%d: greedy does not settle k=%d (greedy %d sets, ok=%v)", m, opt, len(g), ok)
		}
		return allocs
	}
	small, large := settled(64), settled(1024)
	t.Logf("greedy-settled CoverAtMost: %.0f objects at m=64, %.0f at m=1024", small, large)
	if large > small+4 {
		t.Fatalf("greedy-settled CoverAtMost allocates %.0f objects at m=1024 vs %.0f at m=64: the build grows with m", large, small)
	}

	inst, _ := setsystem.PlantedCover(rng.New(3), n, 1024, opt, 0.5)
	k := lowerBound(inst) - 1
	allocs := testing.AllocsPerRun(10, func() {
		if cover, ok, err := CoverAtMost(inst, k, ExactConfig{}); cover != nil || ok || err != nil {
			t.Fatalf("k=%d below the volume bound: cover=%v ok=%v err=%v", k, cover, ok, err)
		}
	})
	if allocs > 0 {
		t.Fatalf("volume-rejected CoverAtMost allocates %.0f objects", allocs)
	}
}

// TestExactAllocsBuildOnce pins iterative deepening to one build: Exact
// asks CoverAtMost for every k from the lower bound (5) to the optimum
// (10) on the exact golden instance, and those queries share one set-bitset
// arena, one greedy run and one occurrence index. Rebuilding them per k
// cost 373 allocations.
func TestExactAllocsBuildOnce(t *testing.T) {
	inst := setsystem.Uniform(rng.New(9), 64, 48, 6, 14)
	if g, _ := Greedy(inst); len(g) != 11 {
		t.Fatalf("workload drifted: greedy found %d sets, want 11 (the search must run)", len(g))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if cover, err := Exact(inst, ExactConfig{}); err != nil || len(cover) != 10 {
			t.Fatalf("Exact = %v, %v; want an optimum of 10 sets", cover, err)
		}
	})
	if allocs > 200 {
		t.Fatalf("Exact allocates %.0f objects, want <= 200", allocs)
	}
}

// TestMaxCoverExactAllocs pins the k = 2 max-coverage solve E6 and E12 run
// on D_MC draws to one set-bitset build, shared by the greedy starting
// bound and the search, one scratch bitset per search depth and one
// bound-selection buffer, rather than allocations per search node.
func TestMaxCoverExactAllocs(t *testing.T) {
	inst := hardinst.SampleMaxCover(hardinst.MCParams{M: 8, Eps: 0.125}, 1, rng.New(3)).Inst
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := MaxCoverExact(inst, 2, ExactConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MaxCoverExact(k=2) on n=%d m=%d: %.0f allocs", inst.N, inst.M(), allocs)
	if allocs > 20 {
		t.Fatalf("MaxCoverExact(k=2) allocates %.0f objects, want <= 20", allocs)
	}
}
