package info

import (
	"fmt"
	"math"
	"testing"

	"streamcover/internal/rng"
)

func TestMutualInfoIndependent(t *testing.T) {
	r := rng.New(1)
	var samples []Sample
	for i := 0; i < 50000; i++ {
		samples = append(samples, Sample{
			X: fmt.Sprint(r.Intn(4)),
			Z: fmt.Sprint(r.Intn(4)),
		})
	}
	mi := MutualInfo(samples, func(s Sample) string { return s.X }, func(s Sample) string { return s.Z })
	if mi > 0.01 {
		t.Fatalf("independent MI = %v, want ≈0", mi)
	}
}

func TestMutualInfoDeterministicCopy(t *testing.T) {
	r := rng.New(2)
	var samples []Sample
	for i := 0; i < 50000; i++ {
		v := fmt.Sprint(r.Intn(8))
		samples = append(samples, Sample{X: v, Z: v})
	}
	mi := MutualInfo(samples, func(s Sample) string { return s.X }, func(s Sample) string { return s.Z })
	if math.Abs(mi-3) > 0.02 {
		t.Fatalf("copy MI = %v, want ≈3 bits", mi)
	}
}

func TestCondMutualInfoXOR(t *testing.T) {
	// Z = X ⊕ Y with X,Y fair independent bits: I(X;Z) = 0 but I(X;Z|Y) = 1.
	r := rng.New(3)
	var samples []Sample
	for i := 0; i < 60000; i++ {
		x, y := r.Intn(2), r.Intn(2)
		samples = append(samples, Sample{
			X: fmt.Sprint(x), Y: fmt.Sprint(y), Z: fmt.Sprint(x ^ y),
		})
	}
	xf := func(s Sample) string { return s.X }
	yf := func(s Sample) string { return s.Y }
	zf := func(s Sample) string { return s.Z }
	if mi := MutualInfo(samples, xf, zf); mi > 0.01 {
		t.Fatalf("I(X;X⊕Y) = %v, want ≈0", mi)
	}
	if cmi := CondMutualInfo(samples, xf, yf, zf); math.Abs(cmi-1) > 0.02 {
		t.Fatalf("I(X;X⊕Y|Y) = %v, want ≈1", cmi)
	}
}

func TestInternalCostFullReveal(t *testing.T) {
	// Protocol that sends X: internal cost = I(Π:X|Y)+I(Π:Y|X) = H(X)+0.
	r := rng.New(4)
	var samples []Sample
	for i := 0; i < 60000; i++ {
		x := fmt.Sprint(r.Intn(8))
		samples = append(samples, Sample{X: x, Y: fmt.Sprint(r.Intn(4)), Z: x})
	}
	ic := InternalCost(samples)
	if math.Abs(ic-3) > 0.05 {
		t.Fatalf("full-reveal internal cost = %v, want ≈3 bits", ic)
	}
}

func TestInternalCostSilentProtocol(t *testing.T) {
	r := rng.New(5)
	var samples []Sample
	for i := 0; i < 20000; i++ {
		samples = append(samples, Sample{
			X: fmt.Sprint(r.Intn(4)), Y: fmt.Sprint(r.Intn(4)), Z: "const",
		})
	}
	if ic := InternalCost(samples); ic > 0.01 {
		t.Fatalf("silent protocol internal cost = %v, want ≈0", ic)
	}
}

func TestLemma22Bound(t *testing.T) {
	th, pr := Lemma22Bound(1000, 1000, 250, 2)
	wantTh := 500 * math.Pow(0.125, 2)
	if math.Abs(th-wantTh) > 1e-9 {
		t.Fatalf("threshold %v want %v", th, wantTh)
	}
	if pr <= 0 || pr > 1 {
		t.Fatalf("prob %v out of range", pr)
	}
	// More sets ⇒ lower threshold and weaker (larger) failure probability.
	th2, pr2 := Lemma22Bound(1000, 1000, 250, 4)
	if th2 >= th || pr2 <= pr {
		t.Fatalf("k-monotonicity violated: th %v→%v, pr %v→%v", th, th2, pr, pr2)
	}
}

func TestEmptySamples(t *testing.T) {
	if mi := MutualInfo(nil, nil, nil); mi != 0 {
		t.Fatal("nil samples MI != 0")
	}
	if cmi := CondMutualInfo(nil, nil, nil, nil); cmi != 0 {
		t.Fatal("nil samples CMI != 0")
	}
}
