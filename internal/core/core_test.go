package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"streamcover/internal/bitset"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

func TestGuesses(t *testing.T) {
	g := Guesses(10, 0.5)
	if g[0] != 1 {
		t.Fatalf("guess grid %v must start at 1", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("guess grid not increasing: %v", g)
		}
		if g[i] > 10 {
			t.Fatalf("guess grid exceeds n: %v", g)
		}
	}
	if g := Guesses(1, 0.5); len(g) != 1 || g[0] != 1 {
		t.Fatalf("Guesses(1) = %v", g)
	}
	if g := Guesses(5, -1); len(g) == 0 {
		t.Fatal("Guesses with bad eps empty")
	}
}

func TestPasses(t *testing.T) {
	if Passes(1) != 3 || Passes(3) != 7 {
		t.Fatal("Passes formula wrong")
	}
}

func TestSampleRateClamped(t *testing.T) {
	a := NewRun(100, 50, 90, Config{Alpha: 2}, rng.New(1))
	if p := a.sampleRate(); p != 1 {
		t.Fatalf("huge guess sample rate = %v, want clamp to 1", p)
	}
	b := NewRun(1_000_000, 100, 1, Config{Alpha: 4}, rng.New(1))
	if p := b.sampleRate(); p <= 0 || p >= 1 {
		t.Fatalf("sample rate = %v, want in (0,1)", p)
	}
}

func TestSolvePlanted(t *testing.T) {
	r := rng.New(7)
	inst, planted := setsystem.PlantedCover(r, 1024, 200, 4, 0.6)
	cfg := Config{Alpha: 2, Epsilon: 0.5}
	res, acc, err := Solve(inst, stream.Adversarial, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatalf("returned set %v is not a cover", res.Cover)
	}
	// Guarantee: (α+ε)·(1+ε)·opt with opt = len(planted) = 4.
	bound := int((2.5)*(1.5)*float64(len(planted))) + 1
	if len(res.Cover) > bound {
		t.Fatalf("cover size %d exceeds guarantee %d", len(res.Cover), bound)
	}
	if acc.Passes > Passes(cfg.Alpha) {
		t.Fatalf("used %d passes, bound %d", acc.Passes, Passes(cfg.Alpha))
	}
	if acc.PeakSpace < inst.N {
		t.Fatalf("peak space %d below the uncovered-bitset floor %d", acc.PeakSpace, inst.N)
	}
}

func TestSolveDeterministic(t *testing.T) {
	inst, _ := setsystem.PlantedCover(rng.New(3), 512, 100, 3, 0.5)
	r1, _, err1 := Solve(inst, stream.Adversarial, Config{Alpha: 2}, rng.New(5))
	r2, _, err2 := Solve(inst, stream.Adversarial, Config{Alpha: 2}, rng.New(5))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Cover) != len(r2.Cover) {
		t.Fatalf("non-deterministic: %v vs %v", r1.Cover, r2.Cover)
	}
	for i := range r1.Cover {
		if r1.Cover[i] != r2.Cover[i] {
			t.Fatalf("non-deterministic: %v vs %v", r1.Cover, r2.Cover)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	inst := setsystem.FromSets(10, [][]int{{0, 1}, {2, 3}})
	_, _, err := Solve(inst, stream.Adversarial, Config{Alpha: 2}, rng.New(1))
	if err != offline.ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestRunWithCorrectGuess(t *testing.T) {
	r := rng.New(9)
	inst, planted := setsystem.PlantedCover(r, 2048, 300, 5, 0.6)
	opt := len(planted)
	run := NewRun(inst.N, inst.M(), opt, Config{Alpha: 2, Epsilon: 0.5}, rng.New(13))
	s := stream.FromInstance(inst, stream.Adversarial, nil)
	acc, err := stream.Run(s, run, Passes(2))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	if !res.Feasible {
		t.Fatal("correct guess did not produce a feasible cover")
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("claimed feasible but not a cover")
	}
	// Lemma 3.10: at most (α+ε)·õpt sets.
	if max := int(2.5*float64(opt)) + 1; len(res.Cover) > max {
		t.Fatalf("cover size %d > (α+ε)·õpt = %d", len(res.Cover), max)
	}
	if acc.Passes > Passes(2) {
		t.Fatalf("passes = %d", acc.Passes)
	}
}

func TestRunGuessTooSmallFails(t *testing.T) {
	// opt is 4 planted blocks; guess 1 cannot succeed on a non-degenerate
	// instance, and the run must report infeasible rather than lie.
	inst, _ := setsystem.PlantedCover(rng.New(21), 512, 60, 4, 0.4)
	run := NewRun(inst.N, inst.M(), 1, Config{Alpha: 2, Epsilon: 0.5}, rng.New(22))
	s := stream.FromInstance(inst, stream.Adversarial, nil)
	if _, err := stream.Run(s, run, Passes(2)); err != nil {
		t.Fatal(err)
	}
	res := run.Result()
	if res.Feasible && !inst.IsCover(res.Cover) {
		t.Fatal("run claims feasible but the cover is invalid")
	}
}

func TestGreedySubsolver(t *testing.T) {
	inst, _ := setsystem.PlantedCover(rng.New(31), 1024, 150, 4, 0.5)
	cfg := Config{Alpha: 2, Epsilon: 0.5, Subsolver: SubsolverGreedy}
	res, _, err := Solve(inst, stream.Adversarial, cfg, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("greedy-subsolver result is not a cover")
	}
}

func TestRandomOrderSolve(t *testing.T) {
	inst, planted := setsystem.PlantedCover(rng.New(41), 1024, 200, 4, 0.6)
	res, _, err := Solve(inst, stream.RandomOnce, Config{Alpha: 3}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("random order produced a non-cover")
	}
	if len(res.Cover) > 6*len(planted) {
		t.Fatalf("cover way oversized: %d vs opt %d", len(res.Cover), len(planted))
	}
}

func TestAlpha1StoresEverythingAndIsNearOptimal(t *testing.T) {
	// α=1 ⇒ p=1: the sampled instance is the full uncovered instance, so the
	// sub-solve is exact set cover; the answer should be ≤ (1+ε)(1+ε)·opt.
	inst, planted := setsystem.PlantedCover(rng.New(51), 256, 40, 3, 0.5)
	res, acc, err := Solve(inst, stream.Adversarial, Config{Alpha: 1, Epsilon: 0.5}, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("not a cover")
	}
	if len(res.Cover) > 2*len(planted) {
		t.Fatalf("α=1 cover %d, opt %d", len(res.Cover), len(planted))
	}
	if acc.Passes > 3 {
		t.Fatalf("α=1 used %d passes", acc.Passes)
	}
}

// Property: on random coverable instances the solver returns a feasible
// cover within the pass bound.
func TestQuickSolveFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 64 + r.Intn(128)
		m := 20 + r.Intn(40)
		inst := setsystem.Uniform(r, n, m, n/4, n/2)
		if !inst.Coverable() {
			return true
		}
		res, acc, err := Solve(inst, stream.Adversarial, Config{Alpha: 2}, rng.New(seed^0xabc))
		if err != nil {
			return false
		}
		return inst.IsCover(res.Cover) && acc.Passes <= Passes(2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceShrinksWithAlpha(t *testing.T) {
	// The m·n^{1/α} term must fall as α grows (Theorem 2's tradeoff), holding
	// the workload fixed. We compare stored projection words via the peak
	// space of single runs at the correct guess, subtracting the common n
	// floor for the uncovered bitset.
	inst, planted := setsystem.PlantedCover(rng.New(61), 4096, 600, 4, 0.6)
	opt := len(planted)
	peak := func(alpha int) int {
		run := NewRun(inst.N, inst.M(), opt, Config{Alpha: alpha, Epsilon: 0.5}, rng.New(62))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, run, Passes(alpha))
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result().Feasible {
			t.Fatalf("alpha=%d infeasible at correct guess", alpha)
		}
		return acc.PeakSpace - inst.N
	}
	p2, p4 := peak(2), peak(4)
	if p4 >= p2 {
		t.Fatalf("projection space did not shrink with α: α=2→%d, α=4→%d", p2, p4)
	}
}

func TestSubsolverString(t *testing.T) {
	if SubsolverExact.String() != "exact" || SubsolverGreedy.String() != "greedy" {
		t.Fatal("Subsolver.String mismatch")
	}
	if Subsolver(9).String() == "" {
		t.Fatal("unknown subsolver empty string")
	}
}

func TestMaxPasses(t *testing.T) {
	if got := (Config{Alpha: 3}).MaxPasses(); got != 7 {
		t.Fatalf("MaxPasses(α=3) = %d, want 7", got)
	}
	if got := (Config{Alpha: 3, DisablePrune: true}).MaxPasses(); got != 6 {
		t.Fatalf("MaxPasses(α=3, no prune) = %d, want 6", got)
	}
	// β = 2/α halves the iteration count (rounded up).
	if got := (Config{Alpha: 4, SampleExponent: 0.5}).MaxPasses(); got != 5 {
		t.Fatalf("MaxPasses(β=1/2) = %d, want 5", got)
	}
}

func TestCoarseExponentBaseline(t *testing.T) {
	// β = 2/α (the Har-Peled-style rate): fewer iterations, more space.
	inst, planted := setsystem.PlantedCover(rng.New(71), 4096, 400, 4, 0.6)
	opt := len(planted)
	peak := func(cfg Config) int {
		run := NewRun(inst.N, inst.M(), opt, cfg, rng.New(72))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, run, cfg.MaxPasses())
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result().Feasible {
			t.Fatalf("cfg %+v infeasible at correct guess", cfg)
		}
		if !inst.IsCover(run.Result().Cover) {
			t.Fatal("not a cover")
		}
		return acc.PeakSpace - inst.N
	}
	sharp := peak(Config{Alpha: 4, Epsilon: 0.5})
	coarse := peak(Config{Alpha: 4, Epsilon: 0.5, SampleExponent: 0.5})
	if coarse <= sharp {
		t.Fatalf("coarse β=2/α should cost more space: sharp=%d coarse=%d", sharp, coarse)
	}
}

func TestDisablePruneStillCovers(t *testing.T) {
	inst, _ := setsystem.PlantedCover(rng.New(81), 1024, 150, 4, 0.5)
	cfg := Config{Alpha: 2, Epsilon: 0.5, DisablePrune: true}
	res, acc, err := Solve(inst, stream.Adversarial, cfg, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsCover(res.Cover) {
		t.Fatal("no-prune variant returned a non-cover")
	}
	if acc.Passes > cfg.MaxPasses() {
		t.Fatalf("passes %d > %d", acc.Passes, cfg.MaxPasses())
	}
}

func TestPrunePickBound(t *testing.T) {
	// Lemma 3.10 (first part): the pruning pass takes at most ε·õpt sets
	// when the threshold exceeds 1 — each pick covers ≥ n/(ε·õpt) fresh
	// elements. Use a workload with sets big enough to trigger pruning.
	r := rng.New(91)
	inst := setsystem.Uniform(r, 2048, 200, 1024, 1800) // dense sets
	eps := 0.5
	for _, guess := range []int{4, 8, 16} {
		run := NewRun(inst.N, inst.M(), guess, Config{Alpha: 2, Epsilon: eps}, rng.New(92))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		if _, err := stream.Run(s, run, Passes(2)); err != nil {
			t.Fatal(err)
		}
		bound := int(eps*float64(guess)) + 1
		if got := run.PrunePicked(); got > bound {
			t.Fatalf("guess=%d: prune picked %d sets > ε·õpt bound %d", guess, got, bound)
		}
	}
}

// TestSolveKernelParity runs identical solves under every grid kernel body
// available on this machine and requires bit-identical results and space
// accounting — the end-to-end half of the dispatch parity contract (the
// bitset package pins the kernels word by word). The guess grid passes
// through every lane-liveness regime: all lanes live on the first pass,
// then progressively fewer as guesses finish, down to the one-live scalar
// fallback path.
func TestSolveKernelParity(t *testing.T) {
	kernels := bitset.GridKernels()
	if len(kernels) < 2 {
		t.Logf("only %v available; parity degenerates to self-comparison", kernels)
	}
	prev := bitset.GridKernel()
	defer func() {
		if err := bitset.SetGridKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	inst, _ := setsystem.PlantedCover(rng.New(9), 600, 96, 6, 0.6)
	for _, workers := range []int{1, 4} {
		var ref Result
		var refAcc stream.Accounting
		for ki, kernel := range kernels {
			if err := bitset.SetGridKernel(kernel); err != nil {
				t.Fatal(err)
			}
			res, acc, err := Solve(inst, stream.Adversarial, Config{Alpha: 2, Workers: workers}, rng.New(17))
			if err != nil {
				t.Fatalf("kernel=%s workers=%d: %v", kernel, workers, err)
			}
			if ki == 0 {
				ref, refAcc = res, acc
				continue
			}
			if !slices.Equal(res.Cover, ref.Cover) || res.Guess != ref.Guess {
				t.Fatalf("kernel=%s workers=%d: cover %v (guess %d) differs from %s's %v (guess %d)",
					kernel, workers, res.Cover, res.Guess, kernels[0], ref.Cover, ref.Guess)
			}
			if acc != refAcc {
				t.Fatalf("kernel=%s workers=%d: accounting %+v differs from %s's %+v",
					kernel, workers, acc, kernels[0], refAcc)
			}
		}
	}
}

// cancelAtPassEnd cancels its context when pass `at` (0-based) of the
// wrapped stream runs out of items: after the last in-pass cancel poll,
// before EndPass runs the pass's sub-solves.
type cancelAtPassEnd struct {
	stream.Stream
	cancel   context.CancelFunc
	at, pass int
}

func (s *cancelAtPassEnd) Reset() {
	s.pass++
	s.Stream.Reset()
}

func (s *cancelAtPassEnd) Next() (stream.Item, bool) {
	it, ok := s.Stream.Next()
	if !ok && s.pass == s.at {
		s.cancel()
	}
	return it, ok
}

// TestSolveStreamCancelAtPassEnd: a cancel that lands between a pass's last
// item and its EndPass makes every live guess's exact sub-solve fail on
// entry. The solve must report the cancel, not the cover of a guess that
// finished earlier.
func TestSolveStreamCancelAtPassEnd(t *testing.T) {
	inst, _ := setsystem.PlantedCover(rng.New(1), 2048, 256, 4, 0.6)
	for _, workers := range []int{1, 2} {
		cfg := Config{Alpha: 2, Workers: workers}
		res, acc, err := SolveStream(stream.FromInstance(inst, stream.Adversarial, nil), cfg, SolveFileRNG(1))
		if err != nil || res.Guess != 4 || acc.Passes != 3 {
			t.Fatalf("workers=%d: clean solve gave guess %d after %d passes (%v), want guess 4 after 3",
				workers, res.Guess, acc.Passes, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Context = ctx
		st := &cancelAtPassEnd{Stream: stream.FromInstance(inst, stream.Adversarial, nil), cancel: cancel, at: 1, pass: -1}
		res, acc, err = SolveStream(st, cfg, SolveFileRNG(1))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancel at the end of pass 1 returned guess %d after %d passes, err %v; want context.Canceled",
				workers, res.Guess, acc.Passes, err)
		}
	}
}
