// Package info provides the information-theoretic toolkit used by the
// lower-bound experiments: plug-in (empirical) estimators of mutual
// information and conditional mutual information over discrete samples,
// plus the Lemma 2.2 sampling bound of Section 2.
//
// The paper's lower bounds are statements about the internal information
// cost ICost_D(π) = I(Π:X|Y) + I(Π:Y|X) of two-party protocols (Definition
// 2). For concrete protocols over small universes these quantities can be
// estimated from samples of (X, Y, Π) triples; experiment E9 uses them to
// exhibit the Ω(t) growth of Proposition 2.5 and the Yes/No-instance cost
// relation behind Lemma 3.5.
package info

import (
	"math"
)

// Sample is one observation of the triple (X, Y, Z): for protocol analysis
// X and Y are the players' inputs and Z the transcript (all serialized to
// strings by the caller).
type Sample struct {
	X, Y, Z string
}

// MutualInfo returns the plug-in estimate of I(X;Z) in bits from samples.
func MutualInfo(samples []Sample, x func(Sample) string, z func(Sample) string) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := float64(len(samples))
	px := map[string]float64{}
	pz := map[string]float64{}
	pxz := map[[2]string]float64{}
	for _, s := range samples {
		xv, zv := x(s), z(s)
		px[xv]++
		pz[zv]++
		pxz[[2]string{xv, zv}]++
	}
	mi := 0.0
	for k, c := range pxz {
		pxy := c / n
		mi += pxy * math.Log2(pxy/((px[k[0]]/n)*(pz[k[1]]/n)))
	}
	if mi < 0 {
		mi = 0 // numerical noise
	}
	return mi
}

// CondMutualInfo returns the plug-in estimate of I(X;Z | Y) in bits:
// Σ_y p(y)·I(X;Z | Y=y).
func CondMutualInfo(samples []Sample, x, y, z func(Sample) string) float64 {
	if len(samples) == 0 {
		return 0
	}
	byY := map[string][]Sample{}
	for _, s := range samples {
		k := y(s)
		byY[k] = append(byY[k], s)
	}
	total := float64(len(samples))
	cmi := 0.0
	for _, group := range byY {
		w := float64(len(group)) / total
		cmi += w * MutualInfo(group, x, z)
	}
	return cmi
}

// InternalCost returns the plug-in estimate of the internal information
// cost I(Π:X|Y) + I(Π:Y|X) in bits from samples of (X, Y, Π).
func InternalCost(samples []Sample) float64 {
	xf := func(s Sample) string { return s.X }
	yf := func(s Sample) string { return s.Y }
	zf := func(s Sample) string { return s.Z }
	return CondMutualInfo(samples, xf, yf, zf) + CondMutualInfo(samples, yf, xf, zf)
}

// Lemma22Bound returns the failure probability bound of Lemma 2.2: for k
// independent uniformly random (n−s)-subsets of [n] and a set U,
// P(|U \ cover| < |U|/2·(s/2n)^k) < 2·exp(−|U|/8·(s/2n)^k).
func Lemma22Bound(uSize, n, s, k int) (threshold float64, prob float64) {
	ratio := math.Pow(float64(s)/(2*float64(n)), float64(k))
	threshold = float64(uSize) / 2 * ratio
	prob = 2 * math.Exp(-float64(uSize)/8*ratio)
	if prob > 1 {
		prob = 1
	}
	return threshold, prob
}
