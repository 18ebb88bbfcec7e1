package lowerbound

import (
	"fmt"
	"testing"

	"streamcover/internal/hardinst"
	"streamcover/internal/rng"
	"streamcover/internal/stream"
)

// runSC streams a D_SC instance through a distinguisher and returns θ̂.
func runSC(t *testing.T, sc *hardinst.SetCoverInstance, cfg SCConfig, order stream.Order, seed uint64) int {
	t.Helper()
	d := NewSCDistinguisher(sc.N, sc.Params.M, cfg, rng.New(seed))
	var r *rng.RNG
	if order != stream.Adversarial {
		r = rng.New(seed ^ 0x5ca1ab1e)
	}
	s := stream.FromInstance(sc.Inst, order, r)
	acc, err := stream.Run(s, d, cfg.Passes+1)
	if err != nil {
		t.Fatal(err)
	}
	if acc.PeakSpace > cfg.Budget+2*sc.Params.M+4 {
		t.Fatalf("distinguisher exceeded budget: peak %d vs budget %d", acc.PeakSpace, cfg.Budget)
	}
	return d.Decide()
}

func TestSCDistinguisherHighBudget(t *testing.T) {
	p := hardinst.SCParams{N: 2048, M: 16, Alpha: 2}
	r := rng.New(3)
	// Generous budget: many samples per pair ⇒ near-perfect accuracy.
	budget := p.M * p.BlockParam() * 8
	correct := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		theta := i % 2
		sc := hardinst.SampleSetCover(p, theta, r)
		got := runSC(t, sc, SCConfig{Budget: budget, Passes: 1}, stream.Adversarial, uint64(100+i))
		if got == theta {
			correct++
		}
	}
	if correct < trials-1 {
		t.Fatalf("high budget: %d/%d correct", correct, trials)
	}
}

func TestSCDistinguisherZeroBudget(t *testing.T) {
	p := hardinst.SCParams{N: 1024, M: 8, Alpha: 2}
	r := rng.New(4)
	sc := hardinst.SampleSetCover(p, 1, r)
	got := runSC(t, sc, SCConfig{Budget: 0, Passes: 1}, stream.Adversarial, 7)
	if got != 0 {
		t.Fatalf("zero budget guessed θ=1 without evidence")
	}
}

func TestSCDistinguisherMultiPass(t *testing.T) {
	// With p passes, a p-times-smaller budget retains accuracy (Theorem 1's
	// s·p tradeoff): compare 1-pass-small-budget vs 4-pass-same-budget.
	p := hardinst.SCParams{N: 2048, M: 32, Alpha: 2}
	tBlocks := p.BlockParam()
	budget := p.M * tBlocks / 2 // half a "full" budget: weak in one pass
	score := func(passes int, base uint64) int {
		r := rng.New(base)
		correct := 0
		for i := 0; i < 30; i++ {
			theta := i % 2
			sc := hardinst.SampleSetCover(p, theta, r)
			if runSC(t, sc, SCConfig{Budget: budget, Passes: passes}, stream.Adversarial, base+uint64(i)) == theta {
				correct++
			}
		}
		return correct
	}
	one := score(1, 1000)
	four := score(4, 2000)
	if four < one {
		t.Fatalf("more passes did not help: 1-pass %d/30, 4-pass %d/30", one, four)
	}
	if four < 24 {
		t.Fatalf("4-pass accuracy too low: %d/30", four)
	}
}

func TestSCDistinguisherRandomOrderAndPartition(t *testing.T) {
	// Robustness (Lemma 3.7): random arrival changes nothing structurally.
	p := hardinst.SCParams{N: 2048, M: 16, Alpha: 2}
	r := rng.New(5)
	budget := p.M * p.BlockParam() * 8
	correct := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		theta := i % 2
		sc := hardinst.SampleSetCover(p, theta, r)
		if runSC(t, sc, SCConfig{Budget: budget, Passes: 1}, stream.RandomOnce, uint64(500+i)) == theta {
			correct++
		}
	}
	if correct < trials-2 {
		t.Fatalf("random order: %d/%d correct", correct, trials)
	}
}

func TestSCBudgetMonotonicity(t *testing.T) {
	// Success rate should increase with budget through the m·t transition.
	p := hardinst.SCParams{N: 2048, M: 16, Alpha: 2}
	full := p.M * p.BlockParam() * 8
	rate := func(budget int, base uint64) float64 {
		r := rng.New(base)
		correct := 0
		const trials = 40
		for i := 0; i < trials; i++ {
			theta := i % 2
			sc := hardinst.SampleSetCover(p, theta, r)
			if runSC(t, sc, SCConfig{Budget: budget, Passes: 1}, stream.Adversarial, base+uint64(i)) == theta {
				correct++
			}
		}
		return float64(correct) / trials
	}
	low := rate(full/64, 10_000)
	high := rate(full, 20_000)
	if high < low {
		t.Fatalf("success not monotone in budget: low=%v high=%v", low, high)
	}
	if high < 0.85 {
		t.Fatalf("full budget success too low: %v", high)
	}
}

func runMC(t *testing.T, mc *hardinst.MaxCoverInstance, cfg MCConfig, seed uint64) int {
	t.Helper()
	d := NewMCDistinguisher(mc.Params.M, cfg, rng.New(seed))
	s := stream.FromInstance(mc.Inst, stream.Adversarial, nil)
	if _, err := stream.Run(s, d, cfg.Passes+1); err != nil {
		t.Fatal(err)
	}
	return d.Decide()
}

func TestMCDistinguisherHighBudget(t *testing.T) {
	p := hardinst.MCParams{Eps: 1.0 / 8, M: 12}
	r := rng.New(6)
	t1 := p.T1()
	budget := p.M * t1 * 4 // ≫ m/ε²… relative to sampling needs
	correct := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		theta := i % 2
		mc := hardinst.SampleMaxCover(p, theta, r)
		if runMC(t, mc, MCConfig{Budget: budget, Passes: 1, T1: t1}, uint64(300+i)) == theta {
			correct++
		}
	}
	if correct < trials-2 {
		t.Fatalf("MC high budget: %d/%d correct", correct, trials)
	}
}

func TestMCDistinguisherZeroBudget(t *testing.T) {
	p := hardinst.MCParams{Eps: 0.25, M: 4}
	mc := hardinst.SampleMaxCover(p, 1, rng.New(7))
	if got := runMC(t, mc, MCConfig{Budget: 0, Passes: 1, T1: p.T1()}, 8); got != 0 {
		t.Fatal("zero budget guessed θ=1")
	}
}

func TestMCBudgetMonotonicity(t *testing.T) {
	p := hardinst.MCParams{Eps: 1.0 / 8, M: 12}
	t1 := p.T1()
	rate := func(budget int, base uint64) float64 {
		r := rng.New(base)
		correct := 0
		const trials = 30
		for i := 0; i < trials; i++ {
			theta := i % 2
			mc := hardinst.SampleMaxCover(p, theta, r)
			if runMC(t, mc, MCConfig{Budget: budget, Passes: 1, T1: t1}, base+uint64(i)) == theta {
				correct++
			}
		}
		return float64(correct) / trials
	}
	low := rate(p.M, 40_000) // one word per pair: hopeless
	high := rate(p.M*t1*4, 50_000)
	if high <= low && high < 0.85 {
		t.Fatalf("MC success not improving with budget: low=%v high=%v", low, high)
	}
	if high < 0.8 {
		t.Fatalf("MC full budget success too low: %v", high)
	}
}

func TestHandlesPartition(t *testing.T) {
	// Every pair must be handled by exactly one pass.
	d := NewSCDistinguisher(100, 17, SCConfig{Budget: 1000, Passes: 4}, rng.New(9))
	owned := map[int]int{}
	for pass := 0; pass < 4; pass++ {
		d.BeginPass(pass)
		for pair := 0; pair < 17; pair++ {
			if d.handles(pair) {
				owned[pair]++
			}
		}
	}
	for pair := 0; pair < 17; pair++ {
		if owned[pair] != 1 {
			t.Fatalf("pair %d handled %d times", pair, owned[pair])
		}
	}
}

func TestSpaceStaysWithinBudget(t *testing.T) {
	p := hardinst.SCParams{N: 1024, M: 16, Alpha: 2}
	sc := hardinst.SampleSetCover(p, 0, rng.New(10))
	for _, budget := range []int{16, 64, 256} {
		d := NewSCDistinguisher(sc.N, p.M, SCConfig{Budget: budget, Passes: 1}, rng.New(11))
		s := stream.FromInstance(sc.Inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if acc.PeakSpace > budget+p.M+2 {
			t.Fatalf("budget %d: peak space %d", budget, acc.PeakSpace)
		}
	}
}

func ExampleSCDistinguisher() {
	p := hardinst.SCParams{N: 1024, M: 8, Alpha: 2}
	sc := hardinst.SampleSetCover(p, 1, rng.New(42))
	d := NewSCDistinguisher(sc.N, p.M, SCConfig{Budget: p.M * p.BlockParam() * 8, Passes: 1}, rng.New(1))
	s := stream.FromInstance(sc.Inst, stream.Adversarial, nil)
	if _, err := stream.Run(s, d, 2); err != nil {
		panic(err)
	}
	fmt.Println("guess:", d.Decide(), "truth:", sc.Theta)
	// Output: guess: 1 truth: 1
}
