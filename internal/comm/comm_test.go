package comm

import (
	"fmt"
	"testing"

	"streamcover/internal/core"
	"streamcover/internal/hardinst"
	"streamcover/internal/offline"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func TestSetBits(t *testing.T) {
	if b := SetBits(16, 3); b != 12 {
		t.Fatalf("SetBits(16,3) = %d, want 12", b)
	}
	if b := SetBits(2, 0); b != 1 {
		t.Fatalf("SetBits minimum = %d, want 1", b)
	}
	if b := SetBits(0, 5); b < 5 {
		t.Fatalf("degenerate universe bits = %d", b)
	}
}

func TestTranscript(t *testing.T) {
	var tr Transcript
	tr.Append("a", 3)
	tr.Append("b", 4)
	if tr.Bits != 7 || tr.Key() != "a|b" {
		t.Fatalf("transcript = %+v key=%q", tr, tr.Key())
	}
}

func TestSimulateStreamingSolver(t *testing.T) {
	inst, planted := setsystem.PlantedCover(rng.New(1), 1024, 200, 4, 0.6)
	// At one worker the whole guess grid is one GridRun group: the solver
	// as a single PassAlgorithm.
	solver := core.NewSolver(inst.N, inst.M(), core.Config{Alpha: 2, Epsilon: 0.5, Workers: 1}, rng.New(2))
	owner := make([]bool, inst.M())
	for i := range owner {
		owner[i] = i%2 == 0
	}
	res, err := SimulateStreaming(solver.Groups()[0], inst, owner, core.Passes(2)+1, 32)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := solver.Best()
	if !ok || !inst.IsCover(best.Cover) {
		t.Fatal("solver failed under two-party simulation")
	}
	if len(best.Cover) > 4*len(planted) {
		t.Fatalf("cover %d vs opt %d", len(best.Cover), len(planted))
	}
	if res.Bits <= 0 || res.Handoffs < res.Passes {
		t.Fatalf("accounting wrong: %+v", res)
	}
	// O(p·s) bits: handoffs·space ≥ bits consistency.
	if res.Handoffs > 2*res.Passes {
		t.Fatalf("too many handoffs: %+v", res)
	}
}

func TestSimulateStreamingOwnerMismatch(t *testing.T) {
	inst := setsystem.Uniform(rng.New(3), 32, 8, 4, 10)
	solver := core.NewSolver(inst.N, inst.M(), core.Config{Alpha: 2, Workers: 1}, rng.New(4))
	if _, err := SimulateStreaming(solver.Groups()[0], inst, make([]bool, 3), 10, 32); err == nil {
		t.Fatal("owner mismatch accepted")
	}
}

func TestSimulateStreamingBeatsFullExchange(t *testing.T) {
	// The Theorem 2 regime needs m ≫ n^{1/α} and a sampling rate below 1:
	// many dense sets, small opt, log₂(n) bits per word (IDs are log n
	// bits; that is what both sides of the comparison pay). Then the
	// streaming protocol's bits drop monotonically with α and beat full
	// exchange from α=2 on, while α=1 (store everything, multiple
	// handoffs) costs more than shipping the input once.
	inst, _ := setsystem.PlantedCover(rng.New(5), 4096, 2048, 2, 0.6)
	owner := make([]bool, inst.M())
	for i := range owner {
		owner[i] = i < inst.M()/2
	}
	full := InstanceBits(inst)
	const wordBits = 12 // ⌈log₂ 4096⌉
	bitsAt := func(alpha int) int {
		run := core.NewRun(inst.N, inst.M(), 2, core.Config{Alpha: alpha, Epsilon: 0.5, SampleC: 1}, rng.New(6))
		res, err := SimulateStreaming(run, inst, owner, core.Passes(alpha), wordBits)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Result().Feasible {
			t.Fatalf("α=%d infeasible at correct guess", alpha)
		}
		return res.Bits
	}
	b1, b2, b4 := bitsAt(1), bitsAt(2), bitsAt(4)
	if b1 <= full {
		t.Fatalf("α=1 should pay at least full exchange: %d vs %d", b1, full)
	}
	if b2 >= full {
		t.Fatalf("α=2 protocol (%d bits) no better than full exchange (%d bits)", b2, full)
	}
	if !(b4 < b2 && b2 < b1) {
		t.Fatalf("bits not decreasing in α: %d, %d, %d", b1, b2, b4)
	}
}

// exactOracle decides opt ≤ bound exactly.
func exactOracle(inst *setsystem.Instance, bound int) (bool, error) {
	opt, err := offline.OptAtMost(inst, bound, offline.ExactConfig{})
	if err != nil {
		return false, err
	}
	return opt <= bound, nil
}

func TestSolveDisjViaSetCover(t *testing.T) {
	p := hardinst.SCParams{N: 2048, M: 6, Alpha: 2}
	tBlocks := p.BlockParam()
	r := rng.New(7)
	correct := 0
	const trials = 12
	for i := 0; i < trials; i++ {
		var d hardinst.Disj
		want := i%2 == 0
		if want {
			d = hardinst.SampleDisjYes(tBlocks, r)
		} else {
			d = hardinst.SampleDisjNo(tBlocks, r)
		}
		got, err := SolveDisjViaSetCover(d, p, exactOracle, r)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			correct++
		}
	}
	// Yes instances are answered correctly with certainty; No instances
	// w.h.p. (Lemma 3.2 event).
	if correct < trials-1 {
		t.Fatalf("reduction correct on %d/%d", correct, trials)
	}
}

func TestSolveDisjViaSetCoverWrongUniverse(t *testing.T) {
	p := hardinst.SCParams{N: 2048, M: 4, Alpha: 2}
	d := hardinst.SampleDisjYes(p.BlockParam()+1, rng.New(8))
	if _, err := SolveDisjViaSetCover(d, p, exactOracle, rng.New(9)); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

// pairOracle decides opt > threshold exactly for k=2.
func pairOracle(inst *setsystem.Instance, threshold float64) (bool, error) {
	_, cov, err := offline.MaxCoverExact(inst, 2, offline.ExactConfig{})
	return float64(cov) > threshold, err
}

func TestSolveGHDViaMaxCover(t *testing.T) {
	p := hardinst.MCParams{Eps: 1.0 / 8, M: 5}
	t1 := p.T1()
	r := rng.New(10)
	correct := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		var g hardinst.GHD
		want := i%2 == 0
		if want {
			g = hardinst.SampleGHDYes(t1, r)
		} else {
			g = hardinst.SampleGHDNo(t1, r)
		}
		got, err := SolveGHDViaMaxCover(g, p, pairOracle, r)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			correct++
		}
	}
	if correct < trials-1 {
		t.Fatalf("GHD reduction correct on %d/%d", correct, trials)
	}
}

func TestDisjProtocols(t *testing.T) {
	r := rng.New(11)
	const tSize, trials = 48, 300
	protos := []DisjProtocol{FullRevealDisj{}, SampledDisj{S: tSize}, SilentDisj{}}
	errs := make([]int, len(protos))
	for i := 0; i < trials; i++ {
		d := hardinst.SampleDisj(tSize, r)
		for pi, p := range protos {
			var tr Transcript
			got := p.Run(d, r, &tr)
			if got != d.Disjoint() {
				errs[pi]++
			}
			if tr.Bits <= 0 {
				t.Fatalf("%s produced empty transcript", p.Name())
			}
		}
	}
	if errs[0] != 0 {
		t.Fatalf("full-reveal erred %d times", errs[0])
	}
	// Sampling the whole set is also exact.
	if errs[1] != 0 {
		t.Fatalf("sampled(S=t) erred %d times", errs[1])
	}
	// Silent errs on all disjoint instances ≈ half the draws.
	if errs[2] < trials/4 || errs[2] > 3*trials/4 {
		t.Fatalf("silent error count %d implausible", errs[2])
	}
}

func TestSampledDisjErrorDecreasesWithS(t *testing.T) {
	r := rng.New(12)
	const tSize, trials = 60, 400
	errAt := func(s int) int {
		errs := 0
		for i := 0; i < trials; i++ {
			d := hardinst.SampleDisjNo(tSize, r) // intersecting: the hard side
			var tr Transcript
			if (SampledDisj{S: s}).Run(d, r, &tr) {
				errs++
			}
		}
		return errs
	}
	small, large := errAt(2), errAt(18)
	if large >= small {
		t.Fatalf("error did not decrease with sample size: S=2→%d, S=18→%d", small, large)
	}
}

func TestProtocolNames(t *testing.T) {
	if (FullRevealDisj{}).Name() != "full-reveal" ||
		(SampledDisj{S: 7}).Name() != "sampled-7" ||
		(SilentDisj{}).Name() != "silent" {
		t.Fatal("protocol names wrong")
	}
}

func TestOdometerPassThrough(t *testing.T) {
	r := rng.New(20)
	const tSize = 32
	inner := FullRevealDisj{}
	o := Odometer{Inner: inner, Budget: 1 << 20}
	for i := 0; i < 100; i++ {
		d := hardinst.SampleDisj(tSize, r)
		var tr Transcript
		if got := o.Run(d, r, &tr); got != d.Disjoint() {
			t.Fatal("odometer with huge budget changed the answer")
		}
		if tr.Msgs[len(tr.Msgs)-1] == "abort" {
			t.Fatal("huge budget aborted")
		}
	}
}

func TestOdometerAbortsAndCaps(t *testing.T) {
	r := rng.New(21)
	const tSize = 64
	o := Odometer{Inner: FullRevealDisj{}, Budget: 8}
	aborted := 0
	for i := 0; i < 100; i++ {
		d := hardinst.SampleDisj(tSize, r)
		var tr Transcript
		got := o.Run(d, r, &tr)
		if tr.Bits > o.Budget+1 {
			t.Fatalf("transcript %d bits exceeds budget %d", tr.Bits, o.Budget)
		}
		if tr.Msgs[len(tr.Msgs)-1] == "abort" {
			aborted++
			if got {
				t.Fatal("abort must fall back to intersecting")
			}
		}
	}
	if aborted < 90 {
		t.Fatalf("tiny budget aborted only %d/100 runs", aborted)
	}
}

func TestOdometerName(t *testing.T) {
	o := Odometer{Inner: SilentDisj{}, Budget: 4}
	if o.Name() != "odometer(silent)" {
		t.Fatalf("Name = %q", o.Name())
	}
}

func TestTranscriptCosts(t *testing.T) {
	var tr Transcript
	tr.Append("a", 3)
	tr.Append("b", 5)
	if len(tr.Costs) != 2 || tr.Costs[0] != 3 || tr.Costs[1] != 5 {
		t.Fatalf("Costs = %v", tr.Costs)
	}
}

func TestSampledSetCoverProtocol(t *testing.T) {
	p := hardinst.SCParams{N: 2048, M: 16, Alpha: 2}
	tBlocks := p.BlockParam()
	r := rng.New(30)
	run := func(perPair int, trials int) (correct int, meanBits float64) {
		totalBits := 0
		for i := 0; i < trials; i++ {
			theta := i % 2
			sc := hardinst.SampleSetCover(p, theta, r.Split(fmt.Sprintf("i-%d-%d", perPair, i)))
			part := sc.CanonicalPartition()
			var tr Transcript
			proto := SampledSetCover{PerPair: perPair}
			got := proto.Run(sc, part, r.Split(fmt.Sprintf("a-%d-%d", perPair, i)), &tr)
			if got == theta {
				correct++
			}
			totalBits += tr.Bits
		}
		return correct, float64(totalBits) / float64(trials)
	}
	const trials = 30
	// Generous per-pair sample (≫ t·ln m): near-perfect.
	hi, hiBits := run(tBlocks*16, trials)
	if hi < trials-2 {
		t.Fatalf("high-budget protocol correct on %d/%d", hi, trials)
	}
	// One sample per pair: near chance.
	lo, loBits := run(1, trials)
	if lo > trials*3/4 {
		t.Fatalf("1-sample protocol suspiciously good: %d/%d", lo, trials)
	}
	if hiBits <= loBits {
		t.Fatalf("bit accounting wrong: hi=%v lo=%v", hiBits, loBits)
	}
}

func TestSampledSetCoverRandomPartition(t *testing.T) {
	// Under a random partition only ~half the pairs are good, but the
	// protocol still works at matched per-pair budgets (Lemma 3.7's story:
	// half the embedded instances survive).
	p := hardinst.SCParams{N: 2048, M: 16, Alpha: 2}
	r := rng.New(31)
	correct := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		theta := i % 2
		sc := hardinst.SampleSetCover(p, theta, r.Split(fmt.Sprintf("i%d", i)))
		part := sc.RandomPartition(r.Split(fmt.Sprintf("p%d", i)))
		var tr Transcript
		got := (SampledSetCover{PerPair: p.BlockParam() * 16}).Run(sc, part, r.Split(fmt.Sprintf("a%d", i)), &tr)
		if got == theta {
			correct++
		}
	}
	// θ=1 is missed when i* is not a good pair (~half the time) — success
	// ≈ 1 on θ=0 and ≈ 3/4 overall, well above chance.
	if correct < trials*3/5 {
		t.Fatalf("random-partition protocol correct on %d/%d", correct, trials)
	}
}

func TestSampledSetCoverName(t *testing.T) {
	if (SampledSetCover{PerPair: 9}).Name() != "sc-sampled-9" {
		t.Fatal("name mismatch")
	}
}

func TestSolveGHDViaMaxCoverWrongUniverse(t *testing.T) {
	p := hardinst.MCParams{Eps: 0.25, M: 3}
	g := hardinst.SampleGHDYes(p.T1()+2, rng.New(40))
	if _, err := SolveGHDViaMaxCover(g, p, pairOracle, rng.New(41)); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}
