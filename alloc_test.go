package streamcover

import "testing"

// TestSolveSetCoverAllocCeilings pins the allocation count of one
// end-to-end solve on the instances and options of
// BenchmarkSolveSetCoverGuessGrid (workers=1) and
// BenchmarkSolveSetCoverAlpha2. Allocation counts are the same on every
// box, so these ceilings gate what ns/op cannot: each step-3(c) sub-solve
// must rank the stored projections in place, reject a too-small guess by
// volume, and build its set bitsets once.
func TestSolveSetCoverAllocCeilings(t *testing.T) {
	grid, _ := GeneratePlanted(1, 8192, 1024, 6)
	alpha2, _ := GeneratePlanted(1, 4096, 512, 4)
	cases := []struct {
		name    string
		inst    *Instance
		opts    []Option
		ceiling float64
	}{
		{"GuessGrid/workers=1", grid,
			[]Option{WithAlpha(3), WithSeed(7), WithSampleConstant(2), WithParallelism(1)}, 10_000},
		{"Alpha2", alpha2,
			[]Option{WithAlpha(2), WithSeed(1), WithSampleConstant(2)}, 5_000},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := SolveSetCover(tc.inst, tc.opts...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= tc.ceiling {
			t.Errorf("%s: one solve allocates %.0f objects, want < %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// TestBuildReplayPlanAllocsFlatInM pins the presized plan arenas: building
// a plan costs a fixed number of allocations whatever the set count.
func TestBuildReplayPlanAllocsFlatInM(t *testing.T) {
	allocs := func(m int) float64 {
		inst, _ := GeneratePlanted(1, 4096, m, 4)
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildReplayPlan(inst); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(128), allocs(2048); large > small {
		t.Fatalf("BuildReplayPlan allocs grow with m: %.0f at m=128, %.0f at m=2048", small, large)
	}
}
