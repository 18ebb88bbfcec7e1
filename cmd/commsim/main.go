// Command commsim runs the two-party communication simulations behind the
// paper's lower bounds: the streaming→communication compiler of Theorem 1,
// the sampled D_SC protocol of Theorem 3, and the Lemma 3.4 / Lemma 4.5
// reduction protocols.
//
// Usage:
//
//	commsim -mode streaming -n 4096 -m 2048       # bits vs α, vs full exchange
//	commsim -mode setcover -trials 20             # D_SC protocol: bits vs success per sample size
//	commsim -mode disj -trials 20                 # π_Disj from a set cover oracle
//	commsim -mode ghd -trials 20                  # π_GHD from a max coverage oracle
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"streamcover/internal/comm"
	"streamcover/internal/core"
	"streamcover/internal/hardinst"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// modes names every -mode value.
const modes = "streaming, setcover, disj, or ghd"

func main() {
	var (
		mode   = flag.String("mode", "streaming", modes)
		n      = flag.Int("n", 4096, "universe size (streaming mode)")
		m      = flag.Int("m", 2048, "number of sets / pairs (streaming mode)")
		trials = flag.Int("trials", 20, "trials (setcover/disj/ghd modes)")
		seed   = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	switch *mode {
	case "streaming":
		streamingMode(*n, *m, *seed)
	case "setcover":
		setCoverMode(*trials, *seed)
	case "disj":
		disjMode(*trials, *seed)
	case "ghd":
		ghdMode(*trials, *seed)
	default:
		fmt.Fprintf(os.Stderr, "commsim: unknown -mode %q (want %s)\n", *mode, modes)
		os.Exit(2)
	}
}

// setCoverMode sweeps the per-pair sample size of the two-party D_SC
// protocol and reports bits vs success — the communication-layer view of
// Theorem 3's Ω̃(m·n^{1/α}) bound.
func setCoverMode(trials int, seed uint64) {
	p := hardinst.SCParams{N: 4096, M: 32, Alpha: 2}
	t := p.BlockParam()
	r := rng.New(seed)
	fmt.Printf("two-party D_SC: n=%d m=%d pairs, t=%d (bound scale m·t = %d)\n",
		p.EffectiveN(), p.M, t, p.M*t)
	fmt.Println("perPair | mean bits | success")
	for _, perPair := range []int{1, t, 4 * t, 16 * t} {
		correct, bits := 0, 0
		for i := 0; i < trials; i++ {
			theta := i % 2
			sc := hardinst.SampleSetCover(p, theta, r.Split(fmt.Sprintf("i%d-%d", perPair, i)))
			var tr comm.Transcript
			got := (comm.SampledSetCover{PerPair: perPair}).Run(
				sc, sc.CanonicalPartition(), r.Split(fmt.Sprintf("a%d-%d", perPair, i)), &tr)
			if got == theta {
				correct++
			}
			bits += tr.Bits
		}
		fmt.Printf("%7d | %9d | %d/%d\n", perPair, bits/trials, correct, trials)
	}
}

func streamingMode(n, m int, seed uint64) {
	r := rng.New(seed)
	inst, planted := setsystem.PlantedCover(r.Split("inst"), n, m, 2, 0.6)
	owner := make([]bool, inst.M())
	for i := range owner {
		owner[i] = r.Split(fmt.Sprint(i)).Bernoulli(0.5)
	}
	wordBits := int(math.Ceil(math.Log2(float64(n))))
	full := comm.InstanceBits(inst)
	fmt.Printf("two-party set cover: n=%d m=%d, full exchange = %d bits\n", n, m, full)
	fmt.Println("alpha | passes | bits | bits/full")
	for alpha := 1; alpha <= 5; alpha++ {
		run := core.NewRun(inst.N, inst.M(), len(planted),
			core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 1}, r.Split(fmt.Sprintf("a%d", alpha)))
		res, err := comm.SimulateStreaming(run, inst, owner, core.Passes(alpha), wordBits)
		if err != nil {
			fmt.Fprintf(os.Stderr, "commsim: %v\n", err)
			os.Exit(1)
		}
		status := ""
		if !run.Result().Feasible {
			status = " (infeasible)"
		}
		fmt.Printf("%5d | %6d | %11d | %.3f%s\n",
			alpha, res.Passes, res.Bits, float64(res.Bits)/float64(full), status)
	}
}

func disjMode(trials int, seed uint64) {
	p := hardinst.SCParams{N: 2048, M: 8, Alpha: 2}
	t := p.BlockParam()
	r := rng.New(seed)
	oracle := func(inst *setsystem.Instance, bound int) (bool, error) {
		opt, err := offline.OptAtMost(inst, bound, offline.ExactConfig{})
		if err != nil {
			return false, err
		}
		return opt <= bound, nil
	}
	correct := 0
	for i := 0; i < trials; i++ {
		var d hardinst.Disj
		want := i%2 == 0
		if want {
			d = hardinst.SampleDisjYes(t, r)
		} else {
			d = hardinst.SampleDisjNo(t, r)
		}
		got, err := comm.SolveDisjViaSetCover(d, p, oracle, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "commsim: %v\n", err)
			os.Exit(1)
		}
		if got == want {
			correct++
		}
	}
	fmt.Printf("π_Disj via SetCover oracle (Lemma 3.4): %d/%d correct on Disj_%d\n", correct, trials, t)
}

func ghdMode(trials int, seed uint64) {
	p := hardinst.MCParams{Eps: 1.0 / 8, M: 5}
	t1 := p.T1()
	r := rng.New(seed)
	oracle := func(inst *setsystem.Instance, threshold float64) (bool, error) {
		_, cov, err := offline.MaxCoverExact(inst, 2, offline.ExactConfig{})
		return float64(cov) > threshold, err
	}
	correct := 0
	for i := 0; i < trials; i++ {
		var g hardinst.GHD
		want := i%2 == 0
		if want {
			g = hardinst.SampleGHDYes(t1, r)
		} else {
			g = hardinst.SampleGHDNo(t1, r)
		}
		got, err := comm.SolveGHDViaMaxCover(g, p, oracle, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "commsim: %v\n", err)
			os.Exit(1)
		}
		if got == want {
			correct++
		}
	}
	fmt.Printf("π_GHD via MaxCover oracle (Lemma 4.5): %d/%d correct on GHD_%d\n", correct, trials, t1)
}
