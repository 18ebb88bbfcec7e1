package maxcover

import (
	"testing"

	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

func runOnce(t *testing.T, inst *setsystem.Instance, alg stream.PassAlgorithm) stream.Accounting {
	t.Helper()
	s := stream.FromInstance(inst, stream.Adversarial, nil)
	acc, err := stream.Run(s, alg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestSampledKCoverNearOptimal(t *testing.T) {
	r := rng.New(1)
	inst := setsystem.Uniform(r, 2000, 120, 100, 400)
	k := 3
	_, _, optCov, err := exactTriple(inst, k)
	if err != nil {
		t.Fatal(err)
	}
	a := NewSampledKCover(inst.N, inst.M(), SampledConfig{K: k, Eps: 0.1, Exact: true}, rng.New(2))
	acc := runOnce(t, inst, a)
	chosen, aerr := a.Result()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(chosen) == 0 || len(chosen) > k {
		t.Fatalf("chose %d sets, want ≤ %d", len(chosen), k)
	}
	got := inst.CoverageOf(chosen)
	if float64(got) < 0.85*float64(optCov) {
		t.Fatalf("sampled coverage %d < 0.85·opt (%d)", got, optCov)
	}
	if acc.Passes != 1 {
		t.Fatalf("passes = %d, want 1", acc.Passes)
	}
}

func exactTriple(inst *setsystem.Instance, k int) (i, j, cov int, err error) {
	chosen, cv, e := offline.MaxCoverExact(inst, k, offline.ExactConfig{})
	if e != nil {
		return 0, 0, 0, e
	}
	_ = chosen
	return 0, 0, cv, nil
}

func TestSampledKCoverSpaceScalesWithEps(t *testing.T) {
	inst := setsystem.Uniform(rng.New(3), 4000, 100, 200, 800)
	peak := func(eps float64) int {
		a := NewSampledKCover(inst.N, inst.M(), SampledConfig{K: 2, Eps: eps}, rng.New(4))
		acc := runOnce(t, inst, a)
		return acc.PeakSpace
	}
	loose, tight := peak(0.5), peak(0.05)
	if tight <= loose {
		t.Fatalf("smaller ε must cost more space: ε=0.5→%d, ε=0.05→%d", loose, tight)
	}
}

func TestSampleSizeClamp(t *testing.T) {
	a := NewSampledKCover(50, 10, SampledConfig{K: 5, Eps: 0.01}, rng.New(5))
	if s := a.SampleSize(); s != 50 {
		t.Fatalf("sample size %d, want clamp to n=50", s)
	}
}

func TestSampledDefaults(t *testing.T) {
	a := NewSampledKCover(100, 10, SampledConfig{}, rng.New(6))
	if a.cfg.K != 1 || a.cfg.Eps != 0.1 || a.cfg.SampleC != 4 {
		t.Fatalf("defaults not applied: %+v", a.cfg)
	}
}

func TestSampledGreedyMode(t *testing.T) {
	inst := setsystem.Uniform(rng.New(9), 1000, 60, 50, 200)
	a := NewSampledKCover(inst.N, inst.M(), SampledConfig{K: 4, Eps: 0.1, Exact: false}, rng.New(10))
	runOnce(t, inst, a)
	chosen, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	_, greedyCov := offline.MaxCoverGreedy(inst, 4)
	got := inst.CoverageOf(chosen)
	if float64(got) < 0.8*float64(greedyCov) {
		t.Fatalf("greedy-mode sampled coverage %d too far below offline greedy %d", got, greedyCov)
	}
}

func BenchmarkSampledKCover(b *testing.B) {
	inst := setsystem.Uniform(rng.New(11), 4000, 200, 100, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewSampledKCover(inst.N, inst.M(), SampledConfig{K: 3, Eps: 0.1}, rng.New(uint64(i)))
		s := stream.FromInstance(inst, stream.Adversarial, nil)
		if _, err := stream.Run(s, a, 2); err != nil {
			b.Fatal(err)
		}
	}
}
