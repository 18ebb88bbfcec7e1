package bitset

import "math/bits"

// Run is one word of a set's word-mask representation: the elements
// e ∈ [64·Word, 64·Word+64) whose bits are set in Mask. A run list — sorted
// by Word, one entry per occupied word — represents a sparse set in a form
// every bitset kernel below consumes word-parallel: probing a 500-element
// set against a bitset costs one AND+popcount per occupied word instead of
// one load+shift+branch per element.
//
// Run lists are built once per streamed item per pass (by the stream
// producer or by the first consumer) from the item's sorted element view and
// shared read-only by every consumer; see stream.Item.Runs.
type Run struct {
	Word int32
	Mask uint64
}

// AppendRuns appends the run list of the sorted, duplicate-free element
// slice to dst and returns it. One Run is emitted per occupied 64-element
// word, in increasing Word order. The build costs one branch per element —
// about the price of one scalar probe loop — so it pays for itself from the
// second consumer onward; build once, probe many.
func AppendRuns(dst []Run, elems []int32) []Run {
	if len(elems) == 0 {
		return dst
	}
	w := elems[0] >> 6
	mask := uint64(1) << (uint32(elems[0]) & 63)
	for _, e := range elems[1:] {
		if ew := e >> 6; ew != w {
			dst = append(dst, Run{Word: w, Mask: mask})
			w, mask = ew, 0
		}
		mask |= 1 << (uint32(e) & 63)
	}
	return append(dst, Run{Word: w, Mask: mask})
}

// CountRuns returns len(AppendRuns(nil, elems)) without building the list:
// the number of distinct 64-element words the sorted elements occupy. Plan
// builders use it to size one run arena exactly before filling it.
func CountRuns(elems []int32) int {
	if len(elems) == 0 {
		return 0
	}
	n, w := 1, elems[0]>>6
	for _, e := range elems[1:] {
		if ew := e >> 6; ew != w {
			n, w = n+1, ew
		}
	}
	return n
}

// RunsLen returns the number of elements a run list represents.
func RunsLen(runs []Run) int {
	c := 0
	for _, r := range runs {
		c += bits.OnesCount64(r.Mask)
	}
	return c
}

// AndCountRuns returns |b ∩ runs| without modifying b: one AND+popcount per
// occupied word. The runs must fit within b's capacity (they do whenever
// they were built from elements of the same universe); out-of-range words
// panic with an index error.
func (b *Bitset) AndCountRuns(runs []Run) int {
	c := 0
	for _, r := range runs {
		c += bits.OnesCount64(b.words[r.Word] & r.Mask)
	}
	return c
}

// AndNotRuns sets b to b \ runs and returns the number of elements removed
// (the popcount delta), so callers tracking |b| update it for free.
func (b *Bitset) AndNotRuns(runs []Run) (removed int) {
	for _, r := range runs {
		w := b.words[r.Word]
		if inter := w & r.Mask; inter != 0 {
			b.words[r.Word] = w &^ r.Mask
			removed += bits.OnesCount64(inter)
		}
	}
	return removed
}

// AndRunsAppend appends the elements of b ∩ runs to dst in increasing order
// and returns it: the word-parallel form of "filter these sorted elements
// by membership in b" (non-intersecting words cost one AND each).
func (b *Bitset) AndRunsAppend(dst []int32, runs []Run) []int32 {
	for _, r := range runs {
		inter := b.words[r.Word] & r.Mask
		base := r.Word << 6
		for inter != 0 {
			t := bits.TrailingZeros64(inter)
			dst = append(dst, base+int32(t))
			inter &= inter - 1
		}
	}
	return dst
}
