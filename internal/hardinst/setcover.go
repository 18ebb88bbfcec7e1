package hardinst

import (
	"fmt"
	"math"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// SCParams configures the hard set cover distribution D_SC (§3.1).
type SCParams struct {
	// N is the requested universe size; the sampler rounds it down to a
	// multiple of the block parameter t (see EffectiveN).
	N int
	// M is the number of (S_i, T_i) pairs; the instance has 2M sets.
	M int
	// Alpha is the approximation parameter α the instance is hard for.
	Alpha int
	// TConst scales t = TConst·(n/ln m)^{1/α}. 0 means 0.25. The paper uses
	// 2^{-15} purely so its union bounds (Lemma 3.2) go through at asymptotic
	// scale. The same tension exists at laptop scale: with TConst=1 two
	// pair-unions miss only ~ln m common elements and accidental 2α-covers
	// appear, destroying the gap; TConst=0.25 makes the expected common miss
	// ≈ 16·ln m and the gap holds with high probability (verified by E3).
	TConst float64
	// TOverride, when positive, fixes t directly (used by tests).
	TOverride int
}

// BlockParam returns the block-count parameter t for these parameters:
// t = TConst·(n/ln m)^{1/α}, clamped to [2, n].
func (p SCParams) BlockParam() int {
	if p.TOverride > 0 {
		return p.TOverride
	}
	c := p.TConst
	if c <= 0 {
		c = 0.25
	}
	lm := math.Log(float64(p.M))
	if lm < 1 {
		lm = 1
	}
	t := int(c * math.Pow(float64(p.N)/lm, 1/float64(p.Alpha)))
	if t < 2 {
		t = 2
	}
	if t > p.N {
		t = p.N
	}
	return t
}

// EffectiveN returns the actual universe size used: N rounded down to a
// multiple of the block parameter.
func (p SCParams) EffectiveN() int {
	t := p.BlockParam()
	n := p.N / t * t
	if n < t {
		n = t
	}
	return n
}

// SetCoverInstance is one draw from D_SC with its ground truth.
//
// The instance has 2M sets over [0, N): set i ∈ [0,M) is S_i = [n]\f_i(A_i)
// (Alice's), set M+i is T_i = [n]\f_i(B_i) (Bob's). When Theta=1, the pair
// (S_{I*}, T_{I*}) covers the universe (opt = 2); when Theta=0, w.h.p. no
// 2α sets cover it (Lemma 3.2).
type SetCoverInstance struct {
	Params SCParams
	Inst   *setsystem.Instance
	N, T   int
	Theta  int
	IStar  int // -1 when Theta = 0
	Disj   []Disj
}

// AliceSet returns the index of S_i within the instance.
func (sc *SetCoverInstance) AliceSet(i int) int { return i }

// BobSet returns the index of T_i within the instance.
func (sc *SetCoverInstance) BobSet(i int) int { return sc.Params.M + i }

// SampleSetCover draws from D_SC with the given θ ∈ {0,1}.
func SampleSetCover(p SCParams, theta int, r *rng.RNG) *SetCoverInstance {
	if p.M < 1 || p.N < 2 || p.Alpha < 1 {
		panic(fmt.Sprintf("hardinst: bad SCParams %+v", p))
	}
	t := p.BlockParam()
	n := p.EffectiveN()

	sc := &SetCoverInstance{
		Params: p, N: n, T: t, Theta: theta, IStar: -1,
		Disj: make([]Disj, p.M),
	}
	for i := 0; i < p.M; i++ {
		sc.Disj[i] = SampleDisjNo(t, r)
	}
	if theta == 1 {
		sc.IStar = r.Intn(p.M)
		sc.Disj[sc.IStar] = SampleDisjYes(t, r)
	}
	sets := make([][]int, 2*p.M)
	for i := 0; i < p.M; i++ {
		f := NewMapping(t, n, r)
		sets[sc.AliceSet(i)] = f.Complement(sc.Disj[i].A)
		sets[sc.BobSet(i)] = f.Complement(sc.Disj[i].B)
	}
	sc.Inst = setsystem.FromSets(n, sets)
	return sc
}

// Partition assigns the 2M sets to Alice/Bob. owner[idx] is true when set
// idx belongs to Alice.
type Partition []bool

// CanonicalPartition is the adversarial split of D_SC: Alice gets all S_i,
// Bob gets all T_i.
func (sc *SetCoverInstance) CanonicalPartition() Partition {
	p := make(Partition, 2*sc.Params.M)
	for i := 0; i < sc.Params.M; i++ {
		p[sc.AliceSet(i)] = true
	}
	return p
}

// RandomPartition assigns each of the 2M sets to Alice independently with
// probability 1/2 (the D_SC^rnd distribution of §3.3).
func (sc *SetCoverInstance) RandomPartition(r *rng.RNG) Partition {
	p := make(Partition, 2*sc.Params.M)
	for i := range p {
		p[i] = r.Bernoulli(0.5)
	}
	return p
}

// GoodIndices returns the pair indices i whose S_i and T_i ended up with
// different owners under the partition (the "good" set G of Lemma 3.7).
func (sc *SetCoverInstance) GoodIndices(p Partition) []int {
	var good []int
	for i := 0; i < sc.Params.M; i++ {
		if p[sc.AliceSet(i)] != p[sc.BobSet(i)] {
			good = append(good, i)
		}
	}
	return good
}
