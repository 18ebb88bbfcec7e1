package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split("alpha")
	c2 := r.Split("alpha") // parent advanced: distinct child
	c3 := New(7).Split("beta")
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("repeated Split with same label produced identical children")
	}
	if New(7).Split("alpha").Uint64() != New(7).Split("alpha").Uint64() {
		t.Fatal("Split not deterministic")
	}
	_ = c3
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		n := 1 + i%97
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestKSubsetProperties(t *testing.T) {
	r := New(13)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw) % (n + 1)
		s := r.KSubset(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be sorted and unique
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKSubsetUniformMarginals(t *testing.T) {
	r := New(17)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, e := range r.KSubset(n, k) {
			counts[e]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for e, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d in %d subsets, want ≈%.0f", e, c, want)
		}
	}
}

func TestSampleEachRate(t *testing.T) {
	r := New(31)
	const n, trials = 1000, 200
	p := 0.05
	total := 0
	for i := 0; i < trials; i++ {
		s := r.SampleEach(n, p)
		for j := 1; j < len(s); j++ {
			if s[j-1] >= s[j] {
				t.Fatal("SampleEach not sorted/unique")
			}
		}
		if len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= n) {
			t.Fatal("SampleEach out of range")
		}
		total += len(s)
	}
	mean := float64(total) / trials
	want := float64(n) * p
	if math.Abs(mean-want) > 6*math.Sqrt(want/trials)+2 {
		t.Fatalf("SampleEach mean size = %v, want ≈%v", mean, want)
	}
	if len(r.SampleEach(100, 0)) != 0 {
		t.Fatal("SampleEach(p=0) non-empty")
	}
	if len(r.SampleEach(100, 1)) != 100 {
		t.Fatal("SampleEach(p=1) incomplete")
	}
}

func TestZipfRange(t *testing.T) {
	r := New(37)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		v := r.Zipf(1.5, 100)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Heavy head: rank 1 should be drawn far more often than rank 50.
	if counts[1] < 10*counts[50] {
		t.Errorf("Zipf not head-heavy: counts[1]=%d counts[50]=%d", counts[1], counts[50])
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkKSubset(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.KSubset(10000, 100)
	}
}
