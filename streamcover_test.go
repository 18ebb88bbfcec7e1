package streamcover

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestSolveSetCoverQuickstart(t *testing.T) {
	inst, planted := GeneratePlanted(1, 2048, 300, 4)
	res, err := SolveSetCover(inst, WithAlpha(2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("public API returned a non-cover")
	}
	if res.Passes > 5 {
		t.Fatalf("passes = %d, want ≤ 2α+1 = 5", res.Passes)
	}
	if len(res.Cover) > 4*len(planted) {
		t.Fatalf("cover %d vs opt %d", len(res.Cover), len(planted))
	}
	if res.SpaceWords <= 0 || res.Guess < 1 {
		t.Fatalf("bad accounting: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSolveSetCoverInfeasible(t *testing.T) {
	inst := NewInstance(6, [][]int{{0, 1}, {2}})
	if _, err := SolveSetCover(inst); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveSetCoverOptions(t *testing.T) {
	inst, _ := GeneratePlanted(2, 1024, 150, 3)
	res, err := SolveSetCover(inst,
		WithAlpha(3), WithEpsilon(0.25), WithOrder(RandomOnce),
		WithSeed(9), WithGreedySubsolver(), WithSampleConstant(8))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("optioned solve returned a non-cover")
	}
}

func TestSolveMaxCoverage(t *testing.T) {
	inst := GenerateUniform(3, 2000, 100, 100, 400)
	res, err := SolveMaxCoverage(inst, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) == 0 || len(res.Chosen) > 3 {
		t.Fatalf("chose %d sets", len(res.Chosen))
	}
	if res.Covered != inst.CoverageOf(res.Chosen) {
		t.Fatal("Covered miscounted")
	}
	_, greedyCov := GreedyMaxCoverage(inst, 3)
	if float64(res.Covered) < 0.8*float64(greedyCov) {
		t.Fatalf("streaming coverage %d far below offline greedy %d", res.Covered, greedyCov)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestOfflineWrappers(t *testing.T) {
	inst, planted := GeneratePlanted(4, 256, 40, 3)
	g, err := GreedySetCover(inst)
	if err != nil || !inst.IsCover(g) {
		t.Fatalf("greedy: %v", err)
	}
	e, err := ExactSetCover(inst)
	if err != nil || !inst.IsCover(e) {
		t.Fatalf("exact: %v", err)
	}
	if len(e) > len(planted) {
		t.Fatalf("exact %d worse than planted %d", len(e), len(planted))
	}
}

func TestGenerators(t *testing.T) {
	for name, inst := range map[string]*Instance{
		"uniform":   GenerateUniform(1, 100, 20, 5, 30),
		"zipf":      GenerateZipf(2, 200, 30, 1.5, 40),
		"clustered": GenerateClustered(3, 300, 30, 6, 25),
	} {
		if err := Validate(inst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRoundTripAndStats(t *testing.T) {
	inst := GenerateUniform(5, 64, 10, 1, 20)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(got)
	if st.N != inst.N || st.M != inst.M() {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

func TestNormalize(t *testing.T) {
	inst := NewInstance(10, [][]int{{5, 2, 2}})
	Normalize(inst)
	if err := Validate(inst); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateHardSetCover(t *testing.T) {
	inst, info := GenerateHardSetCover(11, 1024, 8, 2, 1)
	if err := Validate(inst); err != nil {
		t.Fatal(err)
	}
	if info.Theta != 1 || info.IStar < 0 || info.T < 2 {
		t.Fatalf("info = %+v", info)
	}
	if !inst.IsCover([]int{info.IStar, info.M + info.IStar}) {
		t.Fatal("planted pair does not cover")
	}
	_, info0 := GenerateHardSetCover(12, 1024, 8, 2, 0)
	if info0.Theta != 0 || info0.IStar != -1 {
		t.Fatalf("θ=0 info = %+v", info0)
	}
}

func TestGenerateHardMaxCoverage(t *testing.T) {
	inst, info := GenerateHardMaxCoverage(13, 6, 0.125, 1)
	if err := Validate(inst); err != nil {
		t.Fatal(err)
	}
	cov := inst.CoverageOf([]int{info.IStar, info.M + info.IStar})
	if float64(cov) < info.Tau {
		t.Fatalf("starred pair covers %d < τ = %v", cov, info.Tau)
	}
}

func TestWithOptimumHint(t *testing.T) {
	inst, planted := GeneratePlanted(21, 2048, 300, 4)
	// Correct hint: feasible, and the single guess removes the grid's
	// space overhead.
	withHint, err := SolveSetCover(inst, WithAlpha(2), WithSeed(5),
		WithOptimumHint(len(planted)), WithSampleConstant(2))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(withHint.Cover) {
		t.Fatal("hinted solve returned a non-cover")
	}
	full, err := SolveSetCover(inst, WithAlpha(2), WithSeed(5), WithSampleConstant(2))
	if err != nil {
		t.Fatal(err)
	}
	if withHint.SpaceWords >= full.SpaceWords {
		t.Fatalf("hint did not reduce space: %d vs %d", withHint.SpaceWords, full.SpaceWords)
	}
	// Hopeless hint: the solver reports infeasible rather than lying.
	if _, err := SolveSetCover(inst, WithAlpha(2), WithSeed(5), WithOptimumHint(1)); err != ErrInfeasible {
		t.Fatalf("hint=1 err = %v, want ErrInfeasible", err)
	}
}

func TestProjectAndMergeWrappers(t *testing.T) {
	inst := GenerateUniform(31, 50, 10, 5, 20)
	sub := ProjectInstance(inst, []int{0, 10, 20, 30, 40})
	if sub.N != 5 || sub.M() != 10 {
		t.Fatalf("projection shape %d/%d", sub.N, sub.M())
	}
	merged := MergeInstances(50, inst, inst)
	if merged.M() != 20 {
		t.Fatalf("merge M = %d", merged.M())
	}
	if err := Validate(merged); err != nil {
		t.Fatal(err)
	}
}

// TestReadInstanceAutoBinary checks the public decode path sniffs the
// binary magic (covercli's -in handling rides on this).
func TestReadInstanceAutoBinary(t *testing.T) {
	inst := GenerateUniform(5, 128, 30, 4, 40)
	path := filepath.Join(t.TempDir(), "inst.scb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInstanceBinary(f, inst); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := ReadInstance(rf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != inst.N || got.M() != inst.M() || got.TotalElems() != inst.TotalElems() {
		t.Fatalf("auto-decoded instance differs: %d/%d/%d vs %d/%d/%d",
			got.N, got.M(), got.TotalElems(), inst.N, inst.M(), inst.TotalElems())
	}
	for i := 0; i < inst.M(); i++ {
		a, b := got.Set(i), inst.Set(i)
		for j := range b {
			if a[j] != b[j] {
				t.Fatalf("set %d differs", i)
			}
		}
	}
}

// TestReplayPlanFromAnotherInstanceFails: a replay plan serves only the
// instance it was recorded from. A plan of another instance of the same
// shape would otherwise replay that instance's sets and return its cover.
func TestReplayPlanFromAnotherInstanceFails(t *testing.T) {
	a, _ := GeneratePlanted(1, 256, 64, 4)
	b, _ := GeneratePlanted(2, 256, 64, 4)
	plan, err := BuildReplayPlan(a)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := SolveSetCover(b, WithReplayPlan(plan)); err == nil {
		t.Fatalf("solving b from a's plan returned %v (a cover of b: %v), want an error", res, b.IsCover(res.Cover))
	}
	if _, err := SolveSetCover(a, WithReplayPlan(plan)); err != nil {
		t.Fatalf("solving a from its own plan: %v", err)
	}
}
