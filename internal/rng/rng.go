// Package rng provides a deterministic, splittable random number generator
// for streamcover.
//
// Experiments and hard-instance generators must be exactly reproducible from
// a single seed, and independent components (per-set mapping extensions,
// per-trial streams, ...) must not share state. RNG is a splitmix64-seeded
// xoshiro256** generator; Split derives an independent child generator from
// a string label, so generator trees are stable under code reordering.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
)

// RNG is a deterministic pseudo-random generator. It is not safe for
// concurrent use; Split children for parallel work.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new independent generator derived from r's current state
// and the given label. The parent advances one step so repeated splits with
// the same label yield distinct children.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(r.Uint64() ^ h.Sum64())
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n items via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// KSubset returns a uniformly random k-subset of [0, n), sorted increasing.
// It panics if k < 0 or k > n.
func (r *RNG) KSubset(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: KSubset with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Floyd's algorithm: O(k) expected time and space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// SampleComplement returns want uniform distinct elements of [0, n) \ elems,
// in increasing order, where elems is sorted and duplicate-free. want is
// clamped to the complement's size. It draws the complement positions with
// KSubset and resolves them by walking the gaps of elems, so the complement
// is never materialized.
func (r *RNG) SampleComplement(n int, elems []int32, want int) []int {
	comp := n - len(elems)
	want = min(want, comp)
	if want <= 0 {
		return nil
	}
	positions := r.KSubset(comp, want)
	out := make([]int, 0, want)
	pi, pos, ei := 0, 0, 0 // next wanted position, complement positions consumed, index into elems
	for e := 0; e < n && pi < len(positions); e++ {
		if ei < len(elems) && int(elems[ei]) == e {
			ei++
			continue
		}
		if pos == positions[pi] {
			out = append(out, e)
			pi++
		}
		pos++
	}
	return out
}

// SampleEach returns the sorted subset of [0, n) where each element is
// included independently with probability p.
func (r *RNG) SampleEach(n int, p float64) []int {
	if p <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, int(float64(n)*p)+8)
	logq := math.Log1p(-p)
	i := -1
	for {
		skip := int(math.Floor(math.Log(1-r.Float64()) / logq))
		i += skip + 1
		if i >= n {
			return out
		}
		out = append(out, i)
	}
}

// Zipf returns a sample in [1, max] from a Zipf-like distribution with
// exponent s > 1, via inverse-CDF on the continuous approximation.
func (r *RNG) Zipf(s float64, max int) int {
	if max <= 1 {
		return 1
	}
	// Inverse of P(X <= x) ∝ x^(1-s) continuous approximation.
	u := r.Float64()
	x := math.Pow(1-u*(1-math.Pow(float64(max), 1-s)), 1/(1-s))
	v := int(x)
	if v < 1 {
		v = 1
	}
	if v > max {
		v = max
	}
	return v
}
