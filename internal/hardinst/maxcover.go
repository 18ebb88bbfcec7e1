package hardinst

import (
	"fmt"
	"math"
	"sort"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// MCParams configures the hard maximum coverage distribution D_MC (§4.2).
type MCParams struct {
	// Eps is the approximation parameter ε; the distribution separates
	// opt by a (1±Θ(ε)) factor. t1 = ceil(1/ε²), t2 = 10·t1.
	Eps float64
	// M is the number of (S_i, T_i) pairs; the instance has 2M sets.
	M int
}

// T1 returns the GHD universe size t1 = ceil(1/ε²).
func (p MCParams) T1() int { return int(math.Ceil(1 / (p.Eps * p.Eps))) }

// T2 returns the gadget universe size t2 = 10·t1.
func (p MCParams) T2() int { return 10 * p.T1() }

// MaxCoverInstance is one draw from D_MC with its ground truth. The
// universe is U1 ∪ U2 with U1 = [0, t1) and U2 = [t1, t1+t2); set i is
// S_i = A_i ∪ C_i, set M+i is T_i = B_i ∪ D_i, where (A_i, B_i) ~ GHD over
// U1 and (C_i, D_i) is a random partition of U2. The problem is maximum
// coverage with k = 2: when Theta=1, the pair (S_{I*}, T_{I*}) covers
// ≥ (1+Θ(ε))·τ elements; when Theta=0, every pair covers ≤ (1−Θ(ε))·τ
// w.h.p. (Lemma 4.3).
type MaxCoverInstance struct {
	Params MCParams
	Inst   *setsystem.Instance
	Theta  int
	IStar  int // -1 when Theta = 0
	GHD    []GHD
	// Tau is the Lemma 4.3 separation threshold τ = t2 + (a+b)/2 + t1/4.
	Tau float64
}

// AliceSet returns the index of S_i within the instance.
func (mc *MaxCoverInstance) AliceSet(i int) int { return i }

// BobSet returns the index of T_i within the instance.
func (mc *MaxCoverInstance) BobSet(i int) int { return mc.Params.M + i }

// SampleMaxCover draws from D_MC with the given θ ∈ {0,1}.
func SampleMaxCover(p MCParams, theta int, r *rng.RNG) *MaxCoverInstance {
	if p.M < 1 || p.Eps <= 0 || p.Eps > 0.5 {
		panic(fmt.Sprintf("hardinst: bad MCParams %+v", p))
	}
	t1, t2 := p.T1(), p.T2()
	a, b := GHDSizes(t1)
	mc := &MaxCoverInstance{
		Params: p, Theta: theta, IStar: -1,
		GHD: make([]GHD, p.M),
		Tau: float64(t2) + float64(a+b)/2 + float64(t1)/4,
	}
	for i := 0; i < p.M; i++ {
		mc.GHD[i] = SampleGHDNo(t1, r)
	}
	if theta == 1 {
		mc.IStar = r.Intn(p.M)
		mc.GHD[mc.IStar] = SampleGHDYes(t1, r)
	}
	sets := make([][]int, 2*p.M)
	for i := 0; i < p.M; i++ {
		// Random partition of U2 into (C_i, D_i).
		var ci, di []int
		for e := t1; e < t1+t2; e++ {
			if r.Bernoulli(0.5) {
				ci = append(ci, e)
			} else {
				di = append(di, e)
			}
		}
		sets[mc.AliceSet(i)] = mergeSorted(mc.GHD[i].A, ci)
		sets[mc.BobSet(i)] = mergeSorted(mc.GHD[i].B, di)
	}
	mc.Inst = setsystem.FromSets(t1+t2, sets)
	return mc
}

// mergeSorted merges a sorted slice with a sorted slice over a disjoint,
// higher range (A ⊆ U1, C ⊆ U2), producing a sorted result.
func mergeSorted(a, c []int) []int {
	out := make([]int, 0, len(a)+len(c))
	out = append(out, a...)
	out = append(out, c...)
	if !sort.IntsAreSorted(out) {
		sort.Ints(out)
	}
	return out
}
