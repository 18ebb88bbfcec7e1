package experiments

import (
	"fmt"
	"math"

	"streamcover/internal/baselines"
	"streamcover/internal/bitset"
	"streamcover/internal/core"
	"streamcover/internal/hardinst"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

func init() {
	register("E1", E1SpaceApproxTradeoff)
	register("E3", E3HardInstanceGap)
	register("E7", E7BaselineComparison)
	register("E10", E10ElementSampling)
	register("E11", E11Ablations)
}

// E1SpaceApproxTradeoff sweeps α and measures Algorithm 1's passes, cover
// quality and peak space, against Theorem 2's Õ(m·n^{1/α}) prediction.
func E1SpaceApproxTradeoff(cfg Config) (*Table, error) {
	n, m, opt := 16384, 2048, 4
	if cfg.Quick {
		n, m = 4096, 512
	}
	r := rng.New(cfg.Seed)
	inst, planted := setsystem.PlantedCover(r.Split("instance"), n, m, opt, 0.6)
	t := &Table{
		ID:    "E1",
		Title: "Algorithm 1 space–approximation tradeoff (planted instances)",
		Claim: "Theorem 2: (α+ε)-approximation, 2α+1 passes, Õ(m·n^{1/α}/ε²+n/ε) words; " +
			"the m·n^{1/α} projection term shrinks geometrically with α",
		Columns: []string{"alpha", "passes(bound)", "passes(used)", "cover", "opt",
			"peak_words", "proj_words", "m*n^(1/a)", "proj/pred"},
	}
	for alpha := 1; alpha <= 5; alpha++ {
		run := core.NewRun(inst.N, inst.M(), len(planted),
			core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2}, r.Split(fmt.Sprintf("run-%d", alpha)))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, run, core.Passes(alpha))
		if err != nil {
			return nil, err
		}
		res := run.Result()
		if !res.Feasible {
			t.Notes = append(t.Notes, fmt.Sprintf("alpha=%d: infeasible at correct guess (sampling failure)", alpha))
			continue
		}
		proj := acc.PeakSpace - inst.N
		pred := float64(m) * math.Pow(float64(inst.N), 1/float64(alpha))
		t.AddRow(alpha, core.Passes(alpha), acc.Passes, len(res.Cover), len(planted),
			acc.PeakSpace, proj, int(pred), float64(proj)/pred)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d m=%d planted opt=%d; peak_words includes the n-word uncovered bitset; proj_words = peak − n", inst.N, m, opt),
		"proj/pred is the hidden Õ(·) factor (≈ C·õpt·ln m/ε at small α, dropping toward the solution floor as α grows)",
		"SampleC=2 (not the paper's worst-case 16) so the rate stays below 1 at laptop n — E10 locates the safe range")
	return t, nil
}

// E3HardInstanceGap verifies Lemma 3.2 and the θ=1 pair cover on D_SC:
// opt = 2 under θ=1, opt > 2α under θ=0, with frequency → 1.
func E3HardInstanceGap(cfg Config) (*Table, error) {
	trials := 30
	grid := []hardinst.SCParams{
		{N: 1024, M: 8, Alpha: 2},
		{N: 2048, M: 8, Alpha: 2},
		{N: 4096, M: 12, Alpha: 2},
		{N: 8192, M: 8, Alpha: 2},
		{N: 4096, M: 8, Alpha: 3},
	}
	if cfg.Quick {
		trials = 6
		grid = grid[:2]
	}
	r := rng.New(cfg.Seed)
	t := &Table{
		ID:    "E3",
		Title: "Hard distribution D_SC optimum gap",
		Claim: "Lemma 3.2 + construction: θ=1 ⇒ opt ≤ 2 always (= 2 for t large); θ=0 ⇒ opt > 2α w.p. 1−o(1)",
		Columns: []string{"n", "m", "alpha", "t", "trials",
			"P[opt≤2 | θ=1]", "P[opt>2α | θ=0]"},
	}
	for _, p := range grid {
		opt2, gap := 0, 0
		for i := 0; i < trials; i++ {
			sc1 := hardinst.SampleSetCover(p, 1, r)
			o1, err := offline.OptAtMost(sc1.Inst, 2, offline.ExactConfig{})
			if err != nil {
				return nil, err
			}
			if o1 <= 2 {
				opt2++
			}
			sc0 := hardinst.SampleSetCover(p, 0, r)
			o0, err := offline.OptAtMost(sc0.Inst, 2*p.Alpha, offline.ExactConfig{})
			if err != nil {
				return nil, err
			}
			if o0 > 2*p.Alpha {
				gap++
			}
		}
		t.AddRow(p.EffectiveN(), p.M, p.Alpha, p.BlockParam(), trials,
			float64(opt2)/float64(trials), float64(gap)/float64(trials))
	}
	t.Notes = append(t.Notes,
		"t uses TConst=0.25 (see DESIGN.md: the paper's 2^-15 plays the same role asymptotically)")
	return t, nil
}

// E7BaselineComparison pits Algorithm 1 against the prior algorithms on a
// planted workload: passes, space and cover size.
func E7BaselineComparison(cfg Config) (*Table, error) {
	n, m, opt := 8192, 1024, 4
	if cfg.Quick {
		n, m = 2048, 256
	}
	r := rng.New(cfg.Seed)
	inst, planted := setsystem.PlantedCover(r.Split("instance"), n, m, opt, 0.6)
	t := &Table{
		ID:    "E7",
		Title: "Algorithm 1 vs baselines (planted workload)",
		Claim: "§1.1: Algorithm 1 stores Õ(m·n^{1/α}) vs Õ(m·n^{Θ(2/α)}) for Har-Peled-style " +
			"sampling at the same approximation; progressive greedy is space-light but " +
			"approximation-heavy; store-all pays the whole input",
		Columns: []string{"algorithm", "passes", "cover", "cover/opt", "peak_words", "proj_words"},
	}
	addRun := func(name string, alg stream.PassAlgorithm, maxPasses int,
		result func() ([]int, bool)) error {
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, alg, maxPasses)
		if err != nil {
			return err
		}
		cover, ok := result()
		if !ok {
			t.Notes = append(t.Notes, name+": infeasible")
			return nil
		}
		t.AddRow(name, acc.Passes, len(cover), float64(len(cover))/float64(len(planted)),
			acc.PeakSpace, max(acc.PeakSpace-inst.N, 0))
		return nil
	}

	for _, alpha := range []int{2, 3, 4} {
		run := core.NewRun(inst.N, inst.M(), len(planted),
			core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2}, r.Split(fmt.Sprintf("alg1-%d", alpha)))
		if err := addRun(fmt.Sprintf("Algorithm1(α=%d)", alpha), run, core.Passes(alpha),
			func() ([]int, bool) { res := run.Result(); return res.Cover, res.Feasible }); err != nil {
			return nil, err
		}
	}
	// Har-Peled-style: coarser exponent 2/α, no one-shot prune.
	for _, alpha := range []int{4} {
		hpCfg := core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2, SampleExponent: 2 / float64(alpha), DisablePrune: true}
		run := core.NewRun(inst.N, inst.M(), len(planted), hpCfg, r.Split("harpeled"))
		if err := addRun(fmt.Sprintf("HarPeled-style(α=%d, β=2/α)", alpha), run, hpCfg.MaxPasses(),
			func() ([]int, bool) { res := run.Result(); return res.Cover, res.Feasible }); err != nil {
			return nil, err
		}
	}
	pg := baselines.NewProgressiveGreedy(inst.N, 2)
	if err := addRun("ProgressiveGreedy(λ=2)", pg, pg.MaxPasses(),
		func() ([]int, bool) { return pg.Result() }); err != nil {
		return nil, err
	}
	sa := baselines.NewStoreAllGreedy(inst.N)
	if err := addRun("StoreAllGreedy", sa, 2,
		func() ([]int, bool) { return sa.Result() }); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d m=%d planted opt=%d; Algorithm 1 and HarPeled-style run at the correct õpt guess", n, m, opt))
	return t, nil
}

// E10ElementSampling sweeps the sampling-rate constant of Lemma 3.12 and
// measures when a k-cover of the sample stops covering (1−ρ)·n elements.
func E10ElementSampling(cfg Config) (*Table, error) {
	n, m, k := 4096, 256, 4
	trials := 40
	if cfg.Quick {
		n, m, trials = 1024, 64, 8
	}
	rho := 1.0 / 16
	r := rng.New(cfg.Seed)
	inst, _ := setsystem.PlantedCover(r.Split("instance"), n, m, k, 0.6)
	t := &Table{
		ID:    "E10",
		Title: "Element sampling threshold (Lemma 3.12)",
		Claim: "p ≥ 16·k·ln m/(ρ·n) suffices w.p. 1−1/m²; far smaller rates fail to transfer " +
			"sample covers to (1−ρ)-covers",
		Columns: []string{"multiplier", "p", "E[sample]", "success", "mean_uncovered_frac"},
	}
	pStar := 16 * float64(k) * math.Log(float64(m)) / (rho * float64(n))
	sets := inst.Bitsets()
	for _, mult := range []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1} {
		p := pStar * mult
		if p > 1 {
			p = 1
		}
		success, uncovSum := 0, 0.0
		for i := 0; i < trials; i++ {
			tr := r.Split(fmt.Sprintf("t-%v-%d", mult, i))
			sample := tr.SampleEach(n, p)
			// The sampled sub-instance, covered with ≤ k sets.
			sub := setsystem.Project(inst, sample)
			cover, ok, err := offline.CoverAtMost(sub, k, offline.ExactConfig{})
			if err != nil {
				return nil, err
			}
			if !ok {
				// Sample not coverable with k sets (can happen at p=0 edge):
				// count as failure.
				uncovSum += 1
				continue
			}
			cb := bitset.New(inst.N)
			for _, si := range cover {
				cb.Or(sets[si])
			}
			covered := cb.Count()
			frac := 1 - float64(covered)/float64(n)
			uncovSum += frac
			if frac <= rho {
				success++
			}
		}
		t.AddRow(mult, p, p*float64(n), float64(success)/float64(trials), uncovSum/float64(trials))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d m=%d k=%d ρ=%v; p*=16k·ln(m)/(ρn)=%.4f; success = sampled k-cover also covers (1−ρ)n", n, m, k, rho, pStar))
	return t, nil
}

// E11Ablations isolates the two ingredients separating Algorithm 1 from its
// predecessor — the one-shot prune pass and the sharp 1/α exponent — plus
// the exact-vs-greedy sub-solver choice.
func E11Ablations(cfg Config) (*Table, error) {
	n, m, opt := 8192, 1024, 6
	if cfg.Quick {
		n, m = 2048, 256
	}
	alpha := 4
	r := rng.New(cfg.Seed)
	inst, planted := setsystem.PlantedCover(r.Split("instance"), n, m, opt, 0.6)
	t := &Table{
		ID:    "E11",
		Title: "Ablations of Algorithm 1's ingredients (α=4)",
		Claim: "§3.4: one-shot pruning bounds stored set projections by n/(ε·õpt); the 1/α " +
			"exponent shrinks the sample n^{1/α}-fold vs 2/α; the exact sub-solve keeps " +
			"≤ õpt sets per iteration (greedy inflates the cover)",
		Columns: []string{"variant", "passes", "cover", "peak_words", "proj_words", "feasible"},
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full (paper)", core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2}},
		{"no prune pass", core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2, DisablePrune: true}},
		{"coarse β=2/α", core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2, SampleExponent: 2 / float64(alpha)}},
		{"greedy subsolver", core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 2, Subsolver: core.SubsolverGreedy}},
	}
	for _, v := range variants {
		run := core.NewRun(inst.N, inst.M(), len(planted), v.cfg, r.Split(v.name))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		acc, err := stream.Run(s, run, v.cfg.MaxPasses())
		if err != nil {
			return nil, err
		}
		res := run.Result()
		t.AddRow(v.name, acc.Passes, len(res.Cover), acc.PeakSpace,
			max(acc.PeakSpace-inst.N, 0), res.Feasible)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d m=%d planted opt=%d, correct õpt guess, ε=0.5", n, m, opt))
	return t, nil
}
