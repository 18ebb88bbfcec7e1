// Package setsystem defines set-cover instances — a universe [0, n) and a
// collection of subsets — together with invariant checks, statistics, and
// workload generators.
//
// An Instance is the at-rest representation; streaming algorithms never see
// one directly but consume it through package stream one set at a time.
//
// # Storage layout
//
// Instances are stored in compressed-sparse-row (CSR) form: one flat
// []int32 element arena plus an offsets table, so set i is the contiguous
// view elems[offsets[i]:offsets[i+1]]. Compared to a [][]int
// slice-of-slices this removes one pointer chase and one heap object per
// set, keeps multi-pass scans cache-linear, and makes the whole instance a
// pair of flat arrays — cheap to broadcast read-only across worker
// goroutines and directly serializable by the binary codec. Elements are
// int32 (universes beyond 2^31−1 are outside every workload this
// repository targets and are rejected at construction).
package setsystem

import (
	"fmt"
	"slices"

	"streamcover/internal/bitset"
	"streamcover/internal/rng"
)

// MaxElement is the largest universe element the CSR layout can store.
const MaxElement = int(^uint32(0) >> 1) // math.MaxInt32

// Instance is a set-cover (or maximum-coverage) instance: m subsets of the
// universe [0, N) in CSR layout. Construct with FromSets or a Builder; the
// zero value (and &Instance{N: n}) is a valid empty instance. Sets are
// expected to be sorted and duplicate-free (call SortSets after assembling
// from unnormalized data; Validate checks).
type Instance struct {
	N int

	offsets []int   // len M()+1 when sets exist; offsets[0] == 0
	elems   []int32 // flat element arena

	// Mapped instances (Map) view an mmap'd SCB2 file instead of owning
	// heap arrays; see Backing/MappedBytes/Unmap in mmap.go. mapData is
	// the raw mapping, retained so Advise can pass paging hints to the
	// kernel. The zero values describe an ordinary heap instance.
	backing     Backing
	mappedBytes int64
	mapData     []byte
	unmap       func() error
}

// FromSets builds an instance over [0, n) from a slice of sets, copying the
// elements into a fresh arena. Elements are not normalized or range-checked
// (use SortSets/Validate), but must fit in int32.
func FromSets(n int, sets [][]int) *Instance {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	b := NewBuilder(n)
	b.Grow(len(sets), total)
	for _, s := range sets {
		b.AddSet(s)
	}
	return b.Build()
}

// CSRView returns the instance over [0, n) whose set i is
// elems[offsets[i]:offsets[i+1]], aliasing both slices: nothing is copied,
// so the caller must leave them unchanged while the instance is in use.
// offsets is empty (no sets) or starts at 0 and never decreases; elements
// past its last offset are not part of the instance. Like FromSets, the
// view is not normalized or range-checked.
func CSRView(n int, offsets []int, elems []int32) *Instance {
	end := 0
	if len(offsets) > 0 {
		end = offsets[len(offsets)-1]
	}
	return &Instance{N: n, offsets: offsets, elems: elems[:end]}
}

// M returns the number of sets.
func (in *Instance) M() int {
	if len(in.offsets) == 0 {
		return 0
	}
	return len(in.offsets) - 1
}

// Set returns set i as a zero-copy view into the instance's element arena.
// The view is valid for the life of the instance; callers must not append
// to it (the capacity is clipped so an append cannot bleed into set i+1,
// but would still allocate a confusing copy) and must not mutate it unless
// they own the instance.
func (in *Instance) Set(i int) []int32 {
	return in.elems[in.offsets[i]:in.offsets[i+1]:in.offsets[i+1]]
}

// SetLen returns |S_i| without materializing a view.
func (in *Instance) SetLen(i int) int {
	return in.offsets[i+1] - in.offsets[i]
}

// TotalElems returns Σ|S_i|, the arena length.
func (in *Instance) TotalElems() int { return len(in.elems) }

// Validate checks structural invariants: elements in range, sets sorted and
// duplicate-free. It returns the first violation found.
func (in *Instance) Validate() error {
	if in.N < 0 {
		return fmt.Errorf("setsystem: negative universe size %d", in.N)
	}
	for i := 0; i < in.M(); i++ {
		s := in.Set(i)
		for j, e := range s {
			if e < 0 || int(e) >= in.N {
				return fmt.Errorf("setsystem: set %d element %d out of range [0,%d)", i, e, in.N)
			}
			if j > 0 && s[j-1] >= e {
				return fmt.Errorf("setsystem: set %d not sorted/unique at index %d", i, j)
			}
		}
	}
	return nil
}

// Bitset returns set i as a bitset over [0, N).
func (in *Instance) Bitset(i int) *bitset.Bitset {
	b := bitset.New(in.N)
	b.SetAll(in.Set(i))
	return b
}

// Bitsets materializes every set as a bitset, straight from the arena,
// into one word arena (bitset.NewArena): a constant number of allocations
// for any m. The result is O(m·n/64) words; intended for offline solvers
// and verification, not streaming code.
func (in *Instance) Bitsets() []*bitset.Bitset {
	out := bitset.NewArena(in.N, in.M())
	for i, b := range out {
		b.SetAll(in.Set(i))
	}
	return out
}

// CoverageOf returns the number of distinct elements covered by the sets
// with the given indices.
func (in *Instance) CoverageOf(indices []int) int {
	cov := bitset.New(in.N)
	for _, i := range indices {
		cov.SetAll(in.Set(i))
	}
	return cov.Count()
}

// IsCover reports whether the given indices cover the entire universe.
func (in *Instance) IsCover(indices []int) bool {
	return in.CoverageOf(indices) == in.N
}

// Coverable reports whether the union of all sets is the universe, i.e.
// whether a feasible set cover exists at all.
func (in *Instance) Coverable() bool {
	cov := bitset.New(in.N)
	cov.SetAll(in.elems)
	return cov.Count() == in.N
}

// Clone returns a deep copy of the instance. The copy is always
// heap-backed, so cloning is also how a caller detaches from a mapped
// instance before its mapping goes away.
func (in *Instance) Clone() *Instance {
	return &Instance{
		N:       in.N,
		offsets: slices.Clone(in.offsets),
		elems:   slices.Clone(in.elems),
	}
}

// Stats summarizes an instance for reporting.
type Stats struct {
	N, M                 int
	MinSize, MaxSize     int
	TotalSize            int     // Σ|S_i|, the "input size" a semi-streaming bound compares against
	MeanSize             float64 //
	ElementsCovered      int     // |∪S_i|
	MaxElementFrequency  int     // how many sets the most frequent element is in
	MeanElementFrequency float64
}

// ComputeStats scans the instance once and returns summary statistics.
func ComputeStats(in *Instance) Stats {
	st := Stats{N: in.N, M: in.M(), MinSize: -1}
	freq := make([]int, in.N)
	st.TotalSize = in.TotalElems()
	for i := 0; i < st.M; i++ {
		l := in.SetLen(i)
		if st.MinSize < 0 || l < st.MinSize {
			st.MinSize = l
		}
		if l > st.MaxSize {
			st.MaxSize = l
		}
	}
	for _, e := range in.elems {
		freq[e]++
	}
	if st.MinSize < 0 {
		st.MinSize = 0
	}
	if st.M > 0 {
		st.MeanSize = float64(st.TotalSize) / float64(st.M)
	}
	sum := 0
	for _, f := range freq {
		if f > 0 {
			st.ElementsCovered++
		}
		if f > st.MaxElementFrequency {
			st.MaxElementFrequency = f
		}
		sum += f
	}
	if in.N > 0 {
		st.MeanElementFrequency = float64(sum) / float64(in.N)
	}
	return st
}

// SortSets normalizes every set in place: sorted, duplicates removed. The
// arena is compacted when duplicates are dropped.
func (in *Instance) SortSets() {
	w := 0 // arena write pointer
	for i := 0; i < in.M(); i++ {
		s := in.elems[in.offsets[i]:in.offsets[i+1]]
		slices.Sort(s)
		start := w
		for j, v := range s {
			if j > 0 && v == in.elems[w-1] {
				continue
			}
			in.elems[w] = v
			w++
		}
		in.offsets[i] = start
	}
	if m := in.M(); m > 0 {
		in.offsets[m] = w
	}
	in.elems = in.elems[:w]
}

// --- Builder --------------------------------------------------------------

// Builder assembles an Instance set by set into a single arena. The zero
// value is unusable; call NewBuilder.
type Builder struct {
	n       int
	offsets []int
	elems   []int32
}

// NewBuilder returns a builder for an instance over the universe [0, n).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, offsets: []int{0}}
}

// Grow pre-allocates capacity for the given number of additional sets and
// elements (a hint; exceeding it is fine).
func (b *Builder) Grow(sets, elems int) {
	b.offsets = slices.Grow(b.offsets, sets)
	b.elems = slices.Grow(b.elems, elems)
}

// AddSet appends a set, copying and converting its elements. It panics if
// an element does not fit in int32 (range vs. the universe is checked by
// Validate, not here, so invalid instances can be built for negative
// tests).
func (b *Builder) AddSet(s []int) {
	for _, e := range s {
		if e > MaxElement || e < -MaxElement-1 {
			panic(fmt.Sprintf("setsystem: element %d overflows int32", e))
		}
		b.elems = append(b.elems, int32(e))
	}
	b.offsets = append(b.offsets, len(b.elems))
}

// AddSet32 appends a set of int32 elements, copying them.
func (b *Builder) AddSet32(s []int32) {
	b.elems = append(b.elems, s...)
	b.offsets = append(b.offsets, len(b.elems))
}

// Append adds one element to the currently open set (the set is open from
// the previous EndSet/AddSet boundary and closed by the next EndSet).
func (b *Builder) Append(e int32) { b.elems = append(b.elems, e) }

// EndSet closes the set being filled by Append and returns a mutable view
// of it (e.g. to sort in place before starting the next set).
func (b *Builder) EndSet() []int32 {
	start := b.offsets[len(b.offsets)-1]
	b.offsets = append(b.offsets, len(b.elems))
	return b.elems[start:len(b.elems):len(b.elems)]
}

// Len returns the number of sets added so far.
func (b *Builder) Len() int { return len(b.offsets) - 1 }

// Build finalizes the instance. The builder must not be reused afterwards.
func (b *Builder) Build() *Instance {
	return &Instance{N: b.n, offsets: b.offsets, elems: b.elems}
}

// --- Generators -----------------------------------------------------------

// Uniform returns an instance of m sets over [0, n) where each set is a
// uniformly random k-subset with k drawn uniformly from [minSize, maxSize].
func Uniform(r *rng.RNG, n, m, minSize, maxSize int) *Instance {
	if minSize < 0 || maxSize > n || minSize > maxSize {
		panic("setsystem: invalid size range")
	}
	b := NewBuilder(n)
	b.Grow(m, m*(minSize+maxSize)/2)
	for i := 0; i < m; i++ {
		k := minSize
		if maxSize > minSize {
			k += r.Intn(maxSize - minSize + 1)
		}
		b.AddSet(r.KSubset(n, k))
	}
	return b.Build()
}

// PlantedCover returns an instance with a planted optimal cover of exactly
// optSize sets: the universe is partitioned into optSize blocks forming the
// planted solution, and m−optSize decoy sets are random subsets whose sizes
// follow the planted blocks but that (with high probability) cover poorly.
// The planted indices are returned alongside; they are shuffled into random
// positions.
func PlantedCover(r *rng.RNG, n, m, optSize int, decoyFrac float64) (*Instance, []int) {
	if optSize < 1 || optSize > m || optSize > n {
		panic("setsystem: invalid planted cover size")
	}
	perm := r.Perm(n)
	sets := make([][]int, 0, m)
	// Planted blocks: near-equal partition of the permuted universe.
	for b := 0; b < optSize; b++ {
		lo := b * n / optSize
		hi := (b + 1) * n / optSize
		blk := append([]int(nil), perm[lo:hi]...)
		slices.Sort(blk)
		sets = append(sets, blk)
	}
	// Decoys: random subsets of decoyFrac·(n/optSize) elements.
	decoySize := int(decoyFrac * float64(n) / float64(optSize))
	if decoySize < 1 {
		decoySize = 1
	}
	if decoySize > n {
		decoySize = n
	}
	for i := optSize; i < m; i++ {
		sets = append(sets, r.KSubset(n, decoySize))
	}
	// Shuffle set positions, tracking where the planted sets land.
	pos := r.Perm(m)
	shuffled := make([][]int, m)
	planted := make([]int, 0, optSize)
	for i, p := range pos {
		shuffled[p] = sets[i]
		if i < optSize {
			planted = append(planted, p)
		}
	}
	slices.Sort(planted)
	return FromSets(n, shuffled), planted
}

// dedupScratch is the shared per-generator deduplication state: a stamp
// array indexed by element, bumped once per set, so membership checks need
// no clearing and no per-set map allocation (the map-per-set version
// dominated GenerateZipf profiles).
type dedupScratch struct {
	stamp []int32
	epoch int32
}

func newDedupScratch(n int) *dedupScratch {
	return &dedupScratch{stamp: make([]int32, n)}
}

// next starts a new set; seen reports (and records) membership.
func (d *dedupScratch) next() { d.epoch++ }

func (d *dedupScratch) seen(e int) bool {
	if d.stamp[e] == d.epoch {
		return true
	}
	d.stamp[e] = d.epoch
	return false
}

// Zipf returns an instance where set sizes follow a Zipf-like distribution
// with exponent s (heavier heads for smaller s>1), capped at maxSize, and
// element popularity is skewed: low-numbered elements appear in more sets.
// This models the document/topic workloads motivating streaming set cover.
func Zipf(r *rng.RNG, n, m int, s float64, maxSize int) *Instance {
	if maxSize > n {
		maxSize = n
	}
	b := NewBuilder(n)
	b.Grow(m, m*4) // Zipf sizes are head-heavy; the arena grows as needed
	scratch := newDedupScratch(n)
	for i := 0; i < m; i++ {
		k := r.Zipf(s, maxSize)
		// Skewed element choice: mix uniform picks with popularity-biased
		// picks (element ~ Zipf rank), then dedup via the stamp scratch.
		scratch.next()
		for added := 0; added < k; {
			var e int
			if r.Bernoulli(0.5) {
				e = r.Intn(n)
			} else {
				e = r.Zipf(s, n) - 1
			}
			if scratch.seen(e) {
				continue
			}
			b.Append(int32(e))
			added++
		}
		slices.Sort(b.EndSet())
	}
	return b.Build()
}

// Clustered returns an instance where the universe is split into nClusters
// contiguous clusters and each set draws most of its elements from a single
// home cluster plus a few random outliers. This models topical corpora.
func Clustered(r *rng.RNG, n, m, nClusters, setSize int, outlierFrac float64) *Instance {
	if nClusters < 1 || nClusters > n {
		panic("setsystem: invalid cluster count")
	}
	if setSize > n {
		setSize = n
	}
	b := NewBuilder(n)
	b.Grow(m, m*setSize)
	scratch := newDedupScratch(n)
	for i := 0; i < m; i++ {
		c := r.Intn(nClusters)
		lo := c * n / nClusters
		hi := (c + 1) * n / nClusters
		inCluster := setSize - int(outlierFrac*float64(setSize))
		if inCluster > hi-lo {
			inCluster = hi - lo
		}
		scratch.next()
		added := 0
		for _, e := range r.KSubset(hi-lo, inCluster) {
			scratch.seen(lo + e)
			b.Append(int32(lo + e))
			added++
		}
		for added < setSize {
			e := r.Intn(n)
			if scratch.seen(e) {
				continue
			}
			b.Append(int32(e))
			added++
		}
		slices.Sort(b.EndSet())
	}
	return b.Build()
}
