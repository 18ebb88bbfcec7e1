// Package bitset provides a dense, fixed-capacity bitset used throughout
// streamcover for set algebra over integer universes [0, n).
//
// The zero value of Bitset is an empty set of capacity zero; use New to
// allocate capacity. All binary operations require operands of equal
// capacity and panic otherwise: mixing universes is a programming error,
// not a runtime condition.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-capacity set of integers in [0, Cap()).
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty bitset with capacity for integers in [0, n).
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewArena returns k empty bitsets of capacity n backed by one word arena:
// three allocations in all, where k calls to New make 2k. Each bitset's
// words are a capped sub-slice of the arena, so the k sets are as
// independent as k New results.
func NewArena(n, k int) []*Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	per := (n + wordBits - 1) / wordBits
	words := make([]uint64, k*per)
	sets := make([]Bitset, k)
	out := make([]*Bitset, k)
	for i := range out {
		sets[i] = Bitset{words: words[i*per : (i+1)*per : (i+1)*per], n: n}
		out[i] = &sets[i]
	}
	return out
}

// FromSlice returns a bitset of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Bitset {
	b := New(n)
	for _, e := range elems {
		b.Set(e)
	}
	return b
}

// Cap reports the capacity of the bitset (the universe size it was built for).
func (b *Bitset) Cap() int { return b.n }

// Set adds e to the set.
func (b *Bitset) Set(e int) {
	if e < 0 || e >= b.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, b.n))
	}
	b.words[e/wordBits] |= 1 << (uint(e) % wordBits)
}

// SetAll adds every element of the view (a CSR set view, as returned by
// setsystem.Instance.Set) to the set. It is the bulk form of Set for the
// arena-backed instance layout: one bounds check per element, no interface
// or callback overhead.
func (b *Bitset) SetAll(view []int32) {
	for _, e := range view {
		if e < 0 || int(e) >= b.n {
			panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, b.n))
		}
		b.words[e/wordBits] |= 1 << (uint32(e) % wordBits)
	}
}

// Clear removes e from the set.
func (b *Bitset) Clear(e int) {
	if e < 0 || e >= b.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, b.n))
	}
	b.words[e/wordBits] &^= 1 << (uint(e) % wordBits)
}

// Has reports whether e is in the set.
func (b *Bitset) Has(e int) bool {
	if e < 0 || e >= b.n {
		return false
	}
	return b.words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of other.
func (b *Bitset) CopyFrom(other *Bitset) {
	b.check(other)
	copy(b.words, other.words)
}

// Reset removes all elements.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill adds every element of the universe to the set.
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the bits beyond capacity in the final word.
func (b *Bitset) trim() {
	if r := uint(b.n) % wordBits; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << r) - 1
	}
}

func (b *Bitset) check(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", b.n, other.n))
	}
}

// Or sets b to b ∪ other.
func (b *Bitset) Or(other *Bitset) {
	b.check(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// AndNot sets b to b \ other.
func (b *Bitset) AndNot(other *Bitset) {
	b.check(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// AndCount returns |b ∩ other| without modifying either set.
func (b *Bitset) AndCount(other *Bitset) int {
	b.check(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(b.words[i] & w)
	}
	return c
}

// AndNotCount returns |b \ other| without modifying either set.
func (b *Bitset) AndNotCount(other *Bitset) int {
	b.check(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(b.words[i] &^ w)
	}
	return c
}

// OrCount returns |b ∪ other| without modifying either set.
func (b *Bitset) OrCount(other *Bitset) int {
	b.check(other)
	c := 0
	for i, w := range other.words {
		c += bits.OnesCount64(b.words[i] | w)
	}
	return c
}

// Equal reports whether b and other contain the same elements.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range other.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of b is in other.
func (b *Bitset) SubsetOf(other *Bitset) bool {
	b.check(other)
	for i, w := range b.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Elems appends the elements of b in increasing order to dst and returns it.
func (b *Bitset) Elems(dst []int) []int {
	for i, w := range b.words {
		base := i * wordBits
		for w != 0 {
			t := bits.TrailingZeros64(w)
			dst = append(dst, base+t)
			w &= w - 1
		}
	}
	return dst
}

// Range calls fn for each element in increasing order; it stops early if fn
// returns false.
func (b *Bitset) Range(fn func(e int) bool) {
	for i, w := range b.words {
		base := i * wordBits
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(base + t) {
				return
			}
			w &= w - 1
		}
	}
}

// Next returns the smallest element ≥ from, or -1 if none exists.
func (b *Bitset) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	i := from / wordBits
	w := b.words[i] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(b.words); i++ {
		if b.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(b.words[i])
		}
	}
	return -1
}

// String renders the set as "{e1, e2, ...}"; intended for debugging and
// small sets only.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.Range(func(e int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", e)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
