package bitset

import (
	"fmt"
	"math/bits"
)

// Grid is a bank of equal-capacity bitsets ("lanes") stored bit-sliced:
// word-interleaved, lane-major within each word row. Word w of lane g lives
// at words[w*stride + g], so the w-th word of every lane is one contiguous
// row of the arena. One sweep over a streamed set's word-mask run list then
// updates every lane with stride-1 loads — the memory layout the guess-grid
// Observe loops want, and the layout the SIMD kernel bodies require.
//
// The row width (stride) is the lane count rounded up to a multiple of 4
// when there are at least 4 lanes, so a row is always a whole number of
// 256-bit vectors; the padding lanes exist only in memory and are never
// observable. A 1-lane grid keeps stride 1, which makes it byte-identical
// to a dense Bitset — standalone single-guess runs pay no interleaving tax.
//
// Lane methods take the lane index first; an out-of-range lane panics
// rather than failing silently, as a capacity mismatch does in Bitset.
type Grid struct {
	words  []uint64
	n      int // per-lane capacity in bits
	lanes  int
	stride int // row width in words: lanes, padded up for the SIMD kernels
	rows   int // words per lane: ceil(n/64)
}

// NewGrid returns a grid of `lanes` empty bitsets, each with capacity for
// integers in [0, n).
func NewGrid(n, lanes int) *Grid {
	if n < 0 {
		panic("bitset: negative grid capacity")
	}
	if lanes < 1 {
		panic("bitset: grid needs at least one lane")
	}
	stride := lanes
	if lanes >= 4 {
		stride = (lanes + 3) &^ 3
	}
	rows := (n + wordBits - 1) / wordBits
	return &Grid{
		words:  make([]uint64, rows*stride),
		n:      n,
		lanes:  lanes,
		stride: stride,
		rows:   rows,
	}
}

// MakeCounts returns a zeroed count accumulator of the padded row width,
// sized for AndCountRuns. Entries [0, lanes) are the per-lane counts; the
// padding tail is always zero.
func (g *Grid) MakeCounts() []int64 { return make([]int64, g.stride) }

func (g *Grid) checkLane(lane int) {
	if lane < 0 || lane >= g.lanes {
		panic(fmt.Sprintf("bitset: lane %d out of range [0,%d)", lane, g.lanes))
	}
}

func (g *Grid) checkElem(e int) {
	if e < 0 || e >= g.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, g.n))
	}
}

// Set adds e to the given lane.
func (g *Grid) Set(lane, e int) {
	g.checkLane(lane)
	g.checkElem(e)
	g.words[(e/wordBits)*g.stride+lane] |= 1 << (uint(e) % wordBits)
}

// Clear removes e from the given lane.
func (g *Grid) Clear(lane, e int) {
	g.checkLane(lane)
	g.checkElem(e)
	g.words[(e/wordBits)*g.stride+lane] &^= 1 << (uint(e) % wordBits)
}

// Has reports whether e is in the given lane.
func (g *Grid) Has(lane, e int) bool {
	g.checkLane(lane)
	if e < 0 || e >= g.n {
		return false
	}
	return g.words[(e/wordBits)*g.stride+lane]&(1<<(uint(e)%wordBits)) != 0
}

// Reset removes all elements from the given lane.
func (g *Grid) Reset(lane int) {
	g.checkLane(lane)
	for w := 0; w < g.rows; w++ {
		g.words[w*g.stride+lane] = 0
	}
}

// Fill adds every element of the universe to the given lane.
func (g *Grid) Fill(lane int) {
	g.checkLane(lane)
	for w := 0; w < g.rows; w++ {
		g.words[w*g.stride+lane] = ^uint64(0)
	}
	if r := uint(g.n) % wordBits; r != 0 && g.rows > 0 {
		g.words[(g.rows-1)*g.stride+lane] &= (1 << r) - 1
	}
}

// Count returns the number of elements in the given lane.
func (g *Grid) Count(lane int) int {
	g.checkLane(lane)
	c := 0
	for w := 0; w < g.rows; w++ {
		c += bits.OnesCount64(g.words[w*g.stride+lane])
	}
	return c
}

// Range calls fn for each element of the given lane in increasing order; it
// stops early if fn returns false.
func (g *Grid) Range(lane int, fn func(e int) bool) {
	g.checkLane(lane)
	for w := 0; w < g.rows; w++ {
		word := g.words[w*g.stride+lane]
		base := w * wordBits
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if !fn(base + t) {
				return
			}
			word &= word - 1
		}
	}
}

// LaneRankElems rewrites every element of elems, in place, to its rank in
// the lane: the number of lane elements smaller than it. Elements must lie
// in [0, n). On the lane's own elements this maps its k elements onto
// [0, k) in order, so an ascending view stays ascending. The rank is a
// per-word prefix count plus a popcount below the element's bit; the
// prefix scratch holds one counter per 64 elements of capacity and lives
// only for the call.
func (g *Grid) LaneRankElems(lane int, elems []int32) {
	g.checkLane(lane)
	words, stride := g.words, g.stride
	prefix := make([]int32, g.rows)
	c := int32(0)
	for w := range prefix {
		prefix[w] = c
		c += int32(bits.OnesCount64(words[w*stride+lane]))
	}
	for i, e := range elems {
		w := int(e) / wordBits
		below := words[w*stride+lane] & (1<<(uint(e)%wordBits) - 1)
		elems[i] = prefix[w] + int32(bits.OnesCount64(below))
	}
}

// LaneBitset returns the given lane as a freshly allocated Bitset — the
// de-sliced view, used by parity tests and one-off inspection, not on hot
// paths.
func (g *Grid) LaneBitset(lane int) *Bitset {
	g.checkLane(lane)
	b := New(g.n)
	for w := 0; w < g.rows; w++ {
		b.words[w] = g.words[w*g.stride+lane]
	}
	return b
}

// AndCountRuns accumulates |lane ∩ runs| into counts[lane] for every lane
// at once: for each run it sweeps one contiguous row of the arena, so all
// lanes are probed with stride-1 loads. counts must have length at least
// the padded row width (use MakeCounts); entries are added to, not
// overwritten, and the padding entries stay untouched-by-meaning (padding
// lanes hold no bits, so their counts never change).
//
// This is the dispatched kernel: the body is the scalar loop below or the
// AVX2 assembly body, selected at init by CPU capability (tests switch it
// with SetGridKernel). Both bodies are bit-exact.
func (g *Grid) AndCountRuns(runs []Run, counts []int64) {
	if len(counts) < g.stride {
		panic(fmt.Sprintf("bitset: counts length %d shorter than grid width %d", len(counts), g.stride))
	}
	if len(runs) == 0 || g.rows == 0 {
		return
	}
	if useAVX2Kernel() && g.stride%4 == 0 {
		gridAndCountRunsAVX2(&g.words[0], g.stride, &runs[0], len(runs), &counts[0])
		return
	}
	gridAndCountRunsScalar(g.words, g.stride, runs, counts)
}

// gridAndCountRunsScalar is the pure-Go reference body of AndCountRuns: the
// SIMD bodies must match it bit for bit on every input (see the dispatch
// parity tests).
func gridAndCountRunsScalar(words []uint64, stride int, runs []Run, counts []int64) {
	counts = counts[:stride]
	for _, r := range runs {
		base := int(r.Word) * stride
		row := words[base : base+stride : base+stride]
		m := r.Mask
		for i, w := range row {
			counts[i] += int64(bits.OnesCount64(w & m))
		}
	}
}

// LaneAndCountRuns returns |lane ∩ runs| for a single lane: the strided
// fallback used when only one guess of a group is still live, where a
// full-row sweep would pay for the dead lanes.
func (g *Grid) LaneAndCountRuns(lane int, runs []Run) int {
	g.checkLane(lane)
	words, stride := g.words, g.stride
	c := 0
	if stride == 1 {
		// Degenerate 1-lane grid: dense layout (a lone Run probes here).
		for _, r := range runs {
			c += bits.OnesCount64(words[r.Word] & r.Mask)
		}
		return c
	}
	for _, r := range runs {
		c += bits.OnesCount64(words[int(r.Word)*stride+lane] & r.Mask)
	}
	return c
}

// LaneAndNotRuns sets the lane to lane \ runs and returns the number of
// elements removed, mirroring Bitset.AndNotRuns.
func (g *Grid) LaneAndNotRuns(lane int, runs []Run) (removed int) {
	g.checkLane(lane)
	words, stride := g.words, g.stride
	for _, r := range runs {
		i := int(r.Word)*stride + lane
		w := words[i]
		if inter := w & r.Mask; inter != 0 {
			words[i] = w &^ r.Mask
			removed += bits.OnesCount64(inter)
		}
	}
	return removed
}

// LaneAndRunsAppend appends the elements of lane ∩ runs to dst in
// increasing order and returns it, mirroring Bitset.AndRunsAppend.
func (g *Grid) LaneAndRunsAppend(lane int, dst []int32, runs []Run) []int32 {
	g.checkLane(lane)
	for _, r := range runs {
		inter := g.words[int(r.Word)*g.stride+lane] & r.Mask
		base := r.Word << 6
		for inter != 0 {
			t := bits.TrailingZeros64(inter)
			dst = append(dst, base+int32(t))
			inter &= inter - 1
		}
	}
	return dst
}

// LaneCountElems returns how many of elems are present in the lane: the
// element-at-a-time companion of LaneAndCountRuns for items that carry no
// run list. Out-of-universe elements count as absent, matching Has.
func (g *Grid) LaneCountElems(lane int, elems []int32) int {
	g.checkLane(lane)
	words, stride, n := g.words, g.stride, g.n
	c := 0
	if stride == 1 {
		// Degenerate 1-lane grid: dense layout, no stride multiply on the
		// address path (a lone Run probes here per element).
		for _, e := range elems {
			if uint(e) < uint(n) && words[uint(e)/wordBits]&(1<<(uint(e)%wordBits)) != 0 {
				c++
			}
		}
		return c
	}
	for _, e := range elems {
		if uint(e) >= uint(n) {
			continue
		}
		if words[(int(e)/wordBits)*stride+lane]&(1<<(uint(e)%wordBits)) != 0 {
			c++
		}
	}
	return c
}

// LaneFilterElemsAppend appends to dst the elements of elems present in the
// lane, preserving order: the element-at-a-time companion of
// LaneAndRunsAppend.
func (g *Grid) LaneFilterElemsAppend(lane int, dst, elems []int32) []int32 {
	g.checkLane(lane)
	words, stride, n := g.words, g.stride, g.n
	for _, e := range elems {
		if uint(e) >= uint(n) {
			continue
		}
		if words[(int(e)/wordBits)*stride+lane]&(1<<(uint(e)%wordBits)) != 0 {
			dst = append(dst, e)
		}
	}
	return dst
}

// LaneClearElems removes each element of elems from the lane and returns
// how many were present: the element-at-a-time companion of
// LaneAndNotRuns.
func (g *Grid) LaneClearElems(lane int, elems []int32) (removed int) {
	g.checkLane(lane)
	words, stride, n := g.words, g.stride, g.n
	for _, e := range elems {
		if uint(e) >= uint(n) {
			continue
		}
		i := (int(e)/wordBits)*stride + lane
		m := uint64(1) << (uint(e) % wordBits)
		if words[i]&m != 0 {
			words[i] &^= m
			removed++
		}
	}
	return removed
}
