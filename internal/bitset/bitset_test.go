package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(100)
	if b.Cap() != 100 {
		t.Fatalf("Cap() = %d, want 100", b.Cap())
	}
	if !b.Empty() || b.Count() != 0 {
		t.Fatalf("new bitset not empty: count=%d", b.Count())
	}
}

func TestSetHasClear(t *testing.T) {
	b := New(130)
	for _, e := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(e) {
			t.Fatalf("Has(%d) before Set", e)
		}
		b.Set(e)
		if !b.Has(e) {
			t.Fatalf("!Has(%d) after Set", e)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	b.Clear(64)
	if b.Has(64) {
		t.Fatal("Has(64) after Clear")
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, e := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", e)
				}
			}()
			b.Set(e)
		}()
	}
	if b.Has(-1) || b.Has(10) {
		t.Fatal("Has out of range should be false, not panic")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("Or with mismatched capacity did not panic")
		}
	}()
	a.Or(b)
}

func TestFillNotTrim(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		b := New(n)
		b.Fill()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Fill Count = %d", n, got)
		}
	}
}

func TestElemsRoundTrip(t *testing.T) {
	elems := []int{3, 17, 64, 65, 199}
	b := FromSlice(200, elems)
	got := b.Elems(nil)
	if len(got) != len(elems) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range elems {
		if got[i] != elems[i] {
			t.Fatalf("Elems = %v, want %v", got, elems)
		}
	}
}

func TestNext(t *testing.T) {
	b := FromSlice(200, []int{5, 64, 130})
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130}, {130, 130}, {131, -1}, {-3, 5}, {500, -1},
	}
	for _, c := range cases {
		if got := b.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	b := FromSlice(100, []int{1, 2, 3, 4, 5})
	var seen []int
	b.Range(func(e int) bool {
		seen = append(seen, e)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Fatalf("Range visited %v, want 3 elements", seen)
	}
}

// randomPair builds two random bitsets over the same universe along with
// reference element maps.
func randomPair(r *rand.Rand, n int) (a, b *Bitset, ma, mb map[int]bool) {
	a, b = New(n), New(n)
	ma, mb = map[int]bool{}, map[int]bool{}
	for e := 0; e < n; e++ {
		if r.Intn(2) == 0 {
			a.Set(e)
			ma[e] = true
		}
		if r.Intn(2) == 0 {
			b.Set(e)
			mb[e] = true
		}
	}
	return
}

func TestSetAlgebraAgainstMaps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		a, b, ma, mb := randomPair(r, n)

		union, inter, diff := 0, 0, 0
		for e := 0; e < n; e++ {
			if ma[e] || mb[e] {
				union++
			}
			if ma[e] && mb[e] {
				inter++
			}
			if ma[e] && !mb[e] {
				diff++
			}
		}
		if got := a.OrCount(b); got != union {
			t.Fatalf("n=%d OrCount=%d want %d", n, got, union)
		}
		if got := a.AndCount(b); got != inter {
			t.Fatalf("n=%d AndCount=%d want %d", n, got, inter)
		}
		if got := a.AndNotCount(b); got != diff {
			t.Fatalf("n=%d AndNotCount=%d want %d", n, got, diff)
		}

		// Mutating ops must agree with the counting ops.
		u := a.Clone()
		u.Or(b)
		if u.Count() != union {
			t.Fatalf("Or count=%d want %d", u.Count(), union)
		}
		d := a.Clone()
		d.AndNot(b)
		if d.Count() != diff {
			t.Fatalf("AndNot count=%d want %d", d.Count(), diff)
		}
		if !a.SubsetOf(u) || !b.SubsetOf(u) || !d.SubsetOf(a) {
			t.Fatal("subset relations violated")
		}
	}
}

// Property: |A| + |B| = |A ∪ B| + |A ∩ B|.
func TestQuickInclusionExclusion(t *testing.T) {
	const n = 200
	f := func(xs, ys []uint16) bool {
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Set(int(x) % n)
		}
		for _, y := range ys {
			b.Set(int(y) % n)
		}
		return a.Count()+b.Count() == a.OrCount(b)+a.AndCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Elems returns sorted unique values that round-trip.
func TestQuickElemsRoundTrip(t *testing.T) {
	const n = 500
	f := func(xs []uint16) bool {
		a := New(n)
		for _, x := range xs {
			a.Set(int(x) % n)
		}
		elems := a.Elems(nil)
		for i := 1; i < len(elems); i++ {
			if elems[i-1] >= elems[i] {
				return false
			}
		}
		return FromSlice(n, elems).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndCount(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, y, _, _ := randomPair(r, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

func BenchmarkElems(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x, _, _, _ := randomPair(r, 1<<16)
	buf := make([]int, 0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.Elems(buf[:0])
	}
}
