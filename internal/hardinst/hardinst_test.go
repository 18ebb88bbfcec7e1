package hardinst

import (
	"math"
	"testing"
	"testing/quick"

	"streamcover/internal/offline"
	"streamcover/internal/rng"
)

func TestSampleDisjYesDisjoint(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		d := SampleDisjYes(32, r)
		if len(Intersection(d.A, d.B)) != 0 {
			t.Fatalf("Yes instance intersects: A=%v B=%v", d.A, d.B)
		}
		if d.Intersecting || d.Common != -1 {
			t.Fatal("Yes instance mislabeled")
		}
	}
}

func TestSampleDisjNoSingleIntersection(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		d := SampleDisjNo(32, r)
		inter := Intersection(d.A, d.B)
		if len(inter) != 1 {
			t.Fatalf("No instance |A∩B| = %d, want 1", len(inter))
		}
		if inter[0] != d.Common {
			t.Fatalf("Common = %d, actual intersection %v", d.Common, inter)
		}
	}
}

func TestDisjMarginals(t *testing.T) {
	// Under the base distribution each element is in A w.p. 1/3.
	r := rng.New(3)
	const tSize, trials = 30, 3000
	inA := 0
	for i := 0; i < trials; i++ {
		d := SampleDisjBase(tSize, r)
		inA += len(d.A)
	}
	mean := float64(inA) / trials
	want := float64(tSize) / 3
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("E|A| = %v, want %v", mean, want)
	}
}

func TestInsertSorted(t *testing.T) {
	s := []int{2, 5, 9}
	s = insertSorted(s, 5) // present: unchanged
	if len(s) != 3 {
		t.Fatalf("duplicate inserted: %v", s)
	}
	s = insertSorted(s, 1)
	s = insertSorted(s, 11)
	s = insertSorted(s, 6)
	want := []int{1, 2, 5, 6, 9, 11}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("insertSorted = %v, want %v", s, want)
		}
	}
}

func TestQuickIntersection(t *testing.T) {
	f := func(x, y []uint8) bool {
		ma := map[int]bool{}
		var a, b []int
		for _, v := range x {
			if !ma[int(v)] {
				a = insertSorted(a, int(v))
				ma[int(v)] = true
			}
		}
		mb := map[int]bool{}
		for _, v := range y {
			if !mb[int(v)] {
				b = insertSorted(b, int(v))
				mb[int(v)] = true
			}
		}
		got := Intersection(a, b)
		want := 0
		for v := range ma {
			if mb[v] {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingPartition(t *testing.T) {
	r := rng.New(4)
	m := NewMapping(8, 64, r)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		blk := m.Block(i)
		if len(blk) != 8 {
			t.Fatalf("block %d size %d", i, len(blk))
		}
		for _, e := range blk {
			if seen[e] {
				t.Fatalf("element %d in two blocks", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("blocks cover %d of 64 elements", len(seen))
	}
}

func TestMappingApplyComplement(t *testing.T) {
	r := rng.New(5)
	m := NewMapping(10, 100, r)
	a := []int{0, 3, 7}
	img := m.Apply(a)
	if len(img) != 30 {
		t.Fatalf("Apply size %d, want 30", len(img))
	}
	comp := m.Complement(a)
	if len(comp) != 70 {
		t.Fatalf("Complement size %d, want 70", len(comp))
	}
	inImg := map[int]bool{}
	for _, e := range img {
		inImg[e] = true
	}
	for _, e := range comp {
		if inImg[e] {
			t.Fatalf("element %d in both image and complement", e)
		}
	}
}

func TestMappingRequiresDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMapping(7, 100) did not panic")
		}
	}()
	NewMapping(7, 100, rng.New(1))
}

func TestSCParamsBlockParam(t *testing.T) {
	p := SCParams{N: 4096, M: 64, Alpha: 2}
	tv := p.BlockParam()
	want := int(0.25 * math.Pow(4096/math.Log(64), 0.5))
	if tv != want {
		t.Fatalf("BlockParam = %d, want %d", tv, want)
	}
	n := p.EffectiveN()
	if n%tv != 0 || n > p.N || n < p.N-tv {
		t.Fatalf("EffectiveN = %d for t=%d", n, tv)
	}
	if fixed := (SCParams{N: 100, M: 4, Alpha: 2, TOverride: 5}).BlockParam(); fixed != 5 {
		t.Fatalf("TOverride ignored: %d", fixed)
	}
}

func TestSetCoverThetaOneHasPairCover(t *testing.T) {
	r := rng.New(6)
	p := SCParams{N: 1024, M: 16, Alpha: 2}
	sc := SampleSetCover(p, 1, r)
	if sc.IStar < 0 {
		t.Fatal("IStar unset for θ=1")
	}
	pair := []int{sc.AliceSet(sc.IStar), sc.BobSet(sc.IStar)}
	if !sc.Inst.IsCover(pair) {
		t.Fatal("(S_i*, T_i*) does not cover the universe under θ=1")
	}
	if err := sc.Inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetCoverThetaZeroNoPairCovers(t *testing.T) {
	r := rng.New(7)
	p := SCParams{N: 1024, M: 12, Alpha: 2}
	sc := SampleSetCover(p, 0, r)
	if sc.IStar != -1 {
		t.Fatal("IStar set for θ=0")
	}
	// Remark 3.1(iii): each own-pair union misses exactly n/t elements.
	bs := sc.N / sc.T
	for i := 0; i < p.M; i++ {
		union := sc.Inst.CoverageOf([]int{sc.AliceSet(i), sc.BobSet(i)})
		if miss := sc.N - union; miss != bs {
			t.Fatalf("pair %d misses %d elements, want block size %d", i, miss, bs)
		}
	}
	// No pair of any two sets covers the universe (w.h.p.; deterministic for
	// this seed).
	for x := 0; x < 2*p.M; x++ {
		for y := x + 1; y < 2*p.M; y++ {
			if sc.Inst.CoverageOf([]int{x, y}) == sc.N {
				t.Fatalf("sets (%d,%d) cover the universe under θ=0", x, y)
			}
		}
	}
}

func TestSetCoverSetSizes(t *testing.T) {
	// Remark 3.1(i): |S_i| = 2n/3 ± o(n). With t blocks of n/t elements and
	// |A_i| ≈ t/3 (+1 for the common element), sizes concentrate near 2n/3.
	r := rng.New(8)
	p := SCParams{N: 2048, M: 20, Alpha: 2, TOverride: 32}
	sc := SampleSetCover(p, 0, r)
	for i := 0; i < sc.Inst.M(); i++ {
		frac := float64(sc.Inst.SetLen(i)) / float64(sc.N)
		if frac < 0.4 || frac > 0.9 {
			t.Fatalf("set %d size fraction %v too far from 2/3", i, frac)
		}
	}
}

func TestSetCoverOptGapSmallScale(t *testing.T) {
	// Lemma 3.2 shape at small scale: θ=1 ⇒ opt = 2; θ=0 ⇒ opt > 2α for
	// most draws. Uses the exact bounded solver.
	p := SCParams{N: 2048, M: 8, Alpha: 2}
	r := rng.New(9)
	sc1 := SampleSetCover(p, 1, r)
	opt1, err := offline.OptAtMost(sc1.Inst, 2, offline.ExactConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if opt1 != 2 {
		t.Fatalf("θ=1 opt = %d, want 2", opt1)
	}
	gapHolds := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		sc0 := SampleSetCover(p, 0, r)
		opt0, err := offline.OptAtMost(sc0.Inst, 2*p.Alpha, offline.ExactConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if opt0 > 2*p.Alpha {
			gapHolds++
		}
	}
	if gapHolds < trials-1 {
		t.Fatalf("θ=0 gap held in only %d/%d trials", gapHolds, trials)
	}
}

func TestPartitions(t *testing.T) {
	r := rng.New(10)
	sc := SampleSetCover(SCParams{N: 256, M: 10, Alpha: 2}, 0, r)
	canon := sc.CanonicalPartition()
	good := sc.GoodIndices(canon)
	if len(good) != 10 {
		t.Fatalf("canonical partition good = %d, want all 10", len(good))
	}
	rnd := sc.RandomPartition(r)
	g := len(sc.GoodIndices(rnd))
	if g < 1 || g > 10 {
		t.Fatalf("random partition good indices = %d", g)
	}
}

func TestGHDSampleRespectsPromise(t *testing.T) {
	r := rng.New(11)
	const tSize = 64
	sq := math.Sqrt(tSize)
	for trial := 0; trial < 100; trial++ {
		y := SampleGHDYes(tSize, r)
		if d := float64(y.Delta()); d < tSize/2+sq {
			t.Fatalf("Yes Δ = %v < t/2+√t", d)
		}
		a, b := GHDSizes(tSize)
		if len(y.A) != a || len(y.B) != b {
			t.Fatalf("Yes sizes |A|=%d |B|=%d, want %d,%d", len(y.A), len(y.B), a, b)
		}
		n := SampleGHDNo(tSize, r)
		if d := float64(n.Delta()); d > tSize/2-sq {
			t.Fatalf("No Δ = %v > t/2−√t", d)
		}
		if len(n.A) != a || len(n.B) != b {
			t.Fatalf("No sizes wrong")
		}
	}
}

func TestGHDElementsSortedInRange(t *testing.T) {
	r := rng.New(12)
	g := SampleGHD(100, r)
	for _, s := range [][]int{g.A, g.B} {
		for i, e := range s {
			if e < 0 || e >= 100 {
				t.Fatalf("element %d out of range", e)
			}
			if i > 0 && s[i-1] >= e {
				t.Fatalf("not sorted: %v", s)
			}
		}
	}
}

func TestHypergeomWindowBounds(t *testing.T) {
	r := rng.New(13)
	// q must respect both lo and feasibility constraints.
	for trial := 0; trial < 200; trial++ {
		q := sampleHypergeomTruncated(20, 10, 10, 3, 7, r)
		if q < 3 || q > 7 {
			t.Fatalf("q = %d outside [3,7]", q)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty window did not panic")
		}
	}()
	sampleHypergeomTruncated(10, 5, 5, 6, 7, r)
}

func TestMaxCoverGap(t *testing.T) {
	// Lemma 4.3: under θ=1, the starred pair covers ≥ τ + √t1/2-ish; under
	// θ=0, every own-pair covers < τ.
	p := MCParams{Eps: 1.0 / 8, M: 8}
	r := rng.New(14)

	mc1 := SampleMaxCover(p, 1, r)
	if err := mc1.Inst.Validate(); err != nil {
		t.Fatal(err)
	}
	star := mc1.Inst.CoverageOf([]int{mc1.AliceSet(mc1.IStar), mc1.BobSet(mc1.IStar)})
	if float64(star) < mc1.Tau {
		t.Fatalf("θ=1 starred pair covers %d < τ = %v", star, mc1.Tau)
	}

	mc0 := SampleMaxCover(p, 0, r)
	for i := 0; i < p.M; i++ {
		cov := mc0.Inst.CoverageOf([]int{mc0.AliceSet(i), mc0.BobSet(i)})
		if float64(cov) > mc0.Tau {
			t.Fatalf("θ=0 pair %d covers %d > τ = %v", i, cov, mc0.Tau)
		}
	}
}

func TestMaxCoverClaim44(t *testing.T) {
	// Claim 4.4: own-pairs cover all of U2 (≥ t2); mixed pairs cover at most
	// (3/4 + 0.2)·t2 of U2.
	p := MCParams{Eps: 1.0 / 8, M: 6}
	r := rng.New(15)
	mc := SampleMaxCover(p, 0, r)
	t1, t2 := p.T1(), p.T2()
	inU2 := func(cov []int) int {
		c := 0
		for _, e := range cov {
			if e >= t1 {
				c++
			}
		}
		return c
	}
	for i := 0; i < p.M; i++ {
		si := mc.Inst.Set(mc.AliceSet(i))
		ti := mc.Inst.Set(mc.BobSet(i))
		union := map[int]bool{}
		for _, e := range si {
			union[int(e)] = true
		}
		for _, e := range ti {
			union[int(e)] = true
		}
		var u []int
		for e := range union {
			u = append(u, e)
		}
		if got := inU2(u); got != t2 {
			t.Fatalf("own pair %d covers %d of U2, want %d", i, got, t2)
		}
	}
	// Mixed pairs: sample a few.
	for i := 0; i < p.M-1; i++ {
		cov := mc.Inst.CoverageOf([]int{mc.AliceSet(i), mc.AliceSet(i + 1)})
		if float64(cov) > (0.75+0.2)*float64(t2)+float64(t1) {
			t.Fatalf("mixed pair covers %d, above Claim 4.4(b) bound", cov)
		}
	}
}

func BenchmarkSampleSetCover(b *testing.B) {
	r := rng.New(1)
	p := SCParams{N: 4096, M: 64, Alpha: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SampleSetCover(p, 0, r)
	}
}

func BenchmarkSampleGHD(b *testing.B) {
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SampleGHD(256, r)
	}
}
