package streamcover

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamcover/internal/core"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// Replay-parity suite: serving a solve from a pass-replay plan (prebuilt
// elements and run lists, no re-decode) must be bit-identical to honest
// re-streaming — cover, winning guess, pass count and space accounting —
// under every arrival order and worker count. The adversarial legs are
// additionally pinned against the recorded scalar goldens, so replay
// cannot drift even in lockstep with a drifting honest path.

// TestReplayPlanMatchesHonest crosses {adversarial, random-once,
// random-each-pass} with workers {1, 4, GOMAXPROCS} on both parity
// instances. RandomEachPass is the adversarial case for replay: the
// instance stream must keep drawing fresh permutations while payloads come
// from the plan.
func TestReplayPlanMatchesHonest(t *testing.T) {
	inst1, _ := GeneratePlanted(1, 2048, 256, 5)
	inst2, _ := GeneratePlanted(2, 4096, 512, 6)
	plan1, err := BuildReplayPlan(inst1)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := BuildReplayPlan(inst2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		inst *Instance
		plan *ReplayPlan
		opts []Option
	}{
		{"planted1", inst1, plan1, []Option{WithAlpha(2), WithSeed(7), WithSampleConstant(2)}},
		{"planted2", inst2, plan2, []Option{WithAlpha(3), WithSeed(11), WithSampleConstant(2)}},
	}
	orders := []struct {
		name  string
		order Order
	}{
		{"adversarial", Adversarial},
		{"random-once", RandomOnce},
		{"random-each-pass", RandomEachPass},
	}
	for _, ord := range orders {
		for _, w := range parityWorkerCounts() {
			t.Run(fmt.Sprintf("%s/workers=%d", ord.name, w), func(t *testing.T) {
				for _, tc := range cases {
					base := append([]Option{WithOrder(ord.order), WithParallelism(w)}, tc.opts...)
					honest, err := SolveSetCover(tc.inst, base...)
					if err != nil {
						t.Fatalf("%s honest: %v", tc.name, err)
					}
					replayed, err := SolveSetCover(tc.inst, append(base, WithReplayPlan(tc.plan))...)
					if err != nil {
						t.Fatalf("%s replayed: %v", tc.name, err)
					}
					if !reflect.DeepEqual(honest, replayed) {
						t.Errorf("%s: replay diverged from honest streaming:\nhonest  %+v\nreplayed %+v",
							tc.name, honest, replayed)
					}
				}
			})
		}
	}
}

// TestReplayPlanMatchesScalarGolden pins the replayed adversarial solves
// directly against the recorded scalar goldens (the same pins the honest
// path carries in masks_parity_test.go).
func TestReplayPlanMatchesScalarGolden(t *testing.T) {
	inst1, _ := GeneratePlanted(1, 2048, 256, 5)
	inst2, _ := GeneratePlanted(2, 4096, 512, 6)
	plan1, err := BuildReplayPlan(inst1)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := BuildReplayPlan(inst2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parityWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			r1, err := SolveSetCover(inst1, WithAlpha(2), WithSeed(7), WithSampleConstant(2),
				WithParallelism(w), WithReplayPlan(plan1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.Cover, goldenScalar.sc1Cover) ||
				r1.Guess != goldenScalar.sc1Guess ||
				r1.Passes != goldenScalar.sc1Passes ||
				r1.SpaceWords != goldenScalar.sc1Space {
				t.Errorf("instance 1 replay diverged from scalar golden: got %+v, want cover=%v guess=%d passes=%d space=%d",
					r1, goldenScalar.sc1Cover, goldenScalar.sc1Guess, goldenScalar.sc1Passes, goldenScalar.sc1Space)
			}
			r2, err := SolveSetCover(inst2, WithAlpha(3), WithSeed(11), WithSampleConstant(2),
				WithParallelism(w), WithReplayPlan(plan2))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r2.Cover, goldenScalar.sc2Cover) ||
				r2.Guess != goldenScalar.sc2Guess ||
				r2.Passes != goldenScalar.sc2Passes ||
				r2.SpaceWords != goldenScalar.sc2Space {
				t.Errorf("instance 2 replay diverged from scalar golden: got %+v, want cover=%v guess=%d passes=%d space=%d",
					r2, goldenScalar.sc2Cover, goldenScalar.sc2Guess, goldenScalar.sc2Passes, goldenScalar.sc2Space)
			}
		})
	}
}

// TestReplayFileSolveParity is covercli's -replay path end to end: for
// SCB1, SCB2 (mapped) and text copies of the parity instance, loading the
// file once and solving from a replay plan must equal honest re-streaming
// of the same file — cover, guess, passes and space — at every worker
// count, and stay pinned to the scalar golden so both sides cannot drift
// together.
func TestReplayFileSolveParity(t *testing.T) {
	inst, _ := GeneratePlanted(1, 2048, 256, 5)
	dir := t.TempDir()
	var paths []string
	for _, file := range []struct {
		name   string
		encode func(io.Writer, *Instance) error
	}{
		{"parity.scb1", WriteInstanceBinary},
		{"parity.scb2", WriteInstanceSCB2},
		{"parity.txt", WriteInstance},
	} {
		path := filepath.Join(dir, file.name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := file.encode(f, inst); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	golden := SetCoverResult{Cover: goldenScalar.sc1Cover, Guess: goldenScalar.sc1Guess,
		Passes: goldenScalar.sc1Passes, SpaceWords: goldenScalar.sc1Space}
	for _, w := range parityWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			for _, path := range paths {
				fs, err := stream.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				best, acc, err := core.SolveStream(fs, core.Config{Alpha: 2, SampleC: 2, Workers: w}, core.SolveFileRNG(7))
				fs.Close()
				if err != nil {
					t.Fatal(err)
				}
				honest := SetCoverResult{Cover: best.Cover, Guess: best.Guess, Passes: acc.Passes, SpaceWords: acc.PeakSpace}

				loaded, err := setsystem.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := BuildReplayPlan(loaded)
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := SolveSetCover(loaded, WithAlpha(2), WithSeed(7), WithSampleConstant(2),
					WithParallelism(w), WithReplayPlan(plan))
				loaded.Unmap()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(honest, replayed) {
					t.Errorf("%s: replayed file solve diverged from honest:\nhonest   %+v\nreplayed %+v",
						filepath.Base(path), honest, replayed)
				}
				if !reflect.DeepEqual(replayed, golden) {
					t.Errorf("%s: replayed file solve diverged from scalar golden: got %+v, want %+v",
						filepath.Base(path), replayed, golden)
				}
			}
		})
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
