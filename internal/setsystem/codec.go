package setsystem

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// The text codec uses a simple line format compatible with common set-cover
// benchmark dumps:
//
//	setcover <n> <m>
//	<id> e1 e2 e3 ...
//	...
//
// with 0 ≤ n, m ≤ MaxElement. There are exactly m set lines and they are
// listed in id order: the k-th names set k, the order SCB1's payload uses
// and Write emits. Fields are separated by ASCII whitespace and numbers are
// plain decimal digits; elements lie in [0, n), and unsorted or repeated
// elements are normalized. '#' comment lines and blank lines may appear
// anywhere.
//
// A compact binary codec lives alongside in binary.go and an mmap-native
// one in scb2.go; Sniff tells the three apart by their leading bytes.

// Codec is an on-disk instance format.
type Codec int

const (
	// CodecText is the line format above (Write, Read).
	CodecText Codec = iota
	// CodecSCB1 is the compact varint format (WriteBinary, ReadBinary).
	CodecSCB1
	// CodecSCB2 is the mmap-native format (WriteSCB2, Map, ReadSCB2).
	CodecSCB2
)

// Sniff reports the codec of the input behind br from its leading bytes,
// without consuming them: SCB1 and SCB2 by their magic, anything else as
// text. It is the one codec check: ReadAuto, Load, ReadBinary and stream's
// file openers all call it. No codec's encoding is shorter than a magic
// (the shortest text header, "setcover 0 0", is 12 bytes), so a shorter
// input is rejected here.
func Sniff(br *bufio.Reader) (Codec, error) {
	head, err := br.Peek(len(binaryMagic))
	switch {
	case err == io.EOF:
		return 0, fmt.Errorf("setsystem: unrecognized instance file (empty or too short for any codec: %d bytes)", len(head))
	case err != nil:
		return 0, err
	}
	switch string(head) {
	case binaryMagic:
		return CodecSCB1, nil
	case scb2Magic:
		return CodecSCB2, nil
	}
	return CodecText, nil
}

// A SetReader decodes a text or SCB1 input set by set, in id order. It is
// the one decoder of each of those codecs: Read, ReadBinary, ReadAuto and
// Load append its sets to a Builder, and stream's file-backed passes
// rewind the file and read the sets again.
type SetReader struct {
	br    *bufio.Reader
	codec Codec
	n, m  int
	total int     // Σ|S_i| as the SCB1 header states it; 0 for text
	lens  []int32 // SCB1's per-set lengths
	line  []byte  // text lines longer than br's buffer, gathered
	next  int     // id of the next set
}

// NewSetReader consumes the header of the input behind br and returns a
// reader positioned at set 0. c must be the codec Sniff has reported for
// br: the SCB1 magic is not checked again (a text header checks itself, so
// Read passes CodecText unsniffed). SCB2 has no set reader: Map and
// ReadSCB2 read it.
func NewSetReader(br *bufio.Reader, c Codec) (*SetReader, error) {
	r := &SetReader{br: br, codec: c}
	var err error
	switch c {
	case CodecText:
		err = r.readTextHeader()
	case CodecSCB1:
		err = r.readSCB1Header()
	default:
		err = errors.New("setsystem: SCB2 has no set reader (use Map or ReadSCB2)")
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Universe returns the header's universe size n.
func (r *SetReader) Universe() int { return r.n }

// Len returns the header's set count m.
func (r *SetReader) Len() int { return r.m }

// Next appends the next set's elements, sorted and duplicate-free, to dst
// and returns the set's id and the extended slice; passing the previous
// result's [:0] back in reads a whole pass without allocating once the
// slice has grown to the largest set. After set m−1 it returns io.EOF,
// once the input holds no further set.
func (r *SetReader) Next(dst []int32) (int, []int32, error) {
	id := r.next
	var err error
	if r.codec == CodecText {
		dst, err = r.textSet(dst)
	} else {
		dst, err = r.scb1Set(dst)
	}
	if err == nil {
		r.next++
	}
	return id, dst, err
}

// Rewind starts the sets over from set 0. The caller first repositions the
// input at the byte that followed the header, as stream's file passes do
// by seeking the file and resetting the bufio.Reader.
func (r *SetReader) Rewind() { r.next = 0 }

// decode reads every set of the input behind br into one CSR arena.
// remaining is the input's byte count, or -1 when unknown. Every set and
// every element costs at least one input byte, so the reservation is capped
// by the bytes present (or, when unknown, a fixed chunk that append grows
// from as sets arrive): a header cannot make the decoder allocate what the
// input does not back.
func decode(br *bufio.Reader, c Codec, remaining int) (*Instance, error) {
	r, err := NewSetReader(br, c)
	if err != nil {
		return nil, err
	}
	limit := readChunkPrealloc
	if remaining >= 0 {
		limit = remaining
	}
	b := NewBuilder(r.n)
	b.Grow(min(r.m, limit), min(r.total, limit))
	for {
		_, b.elems, err = r.Next(b.elems)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b.EndSet()
	}
	in := b.Build()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Write encodes the instance in the text format.
func Write(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "setcover %d %d\n", in.N, in.M()); err != nil {
		return err
	}
	for i := 0; i < in.M(); i++ {
		if _, err := fmt.Fprintf(bw, "%d", i); err != nil {
			return err
		}
		for _, e := range in.Set(i) {
			if _, err := fmt.Fprintf(bw, " %d", e); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes an instance from the text format and validates it.
func Read(r io.Reader) (*Instance, error) {
	remaining := remainingBytes(r)
	return decode(bufio.NewReader(r), CodecText, remaining)
}

// ReadAuto decodes an instance from any codec — SCB1 varint binary, SCB2
// mmap-native binary, or text — as Sniff reports it. The SCB2 path decodes
// into the heap (uploads and pipes have no file to map; use Map, or Load
// for a file in any codec, for the zero-copy open).
func ReadAuto(r io.Reader) (*Instance, error) {
	remaining := remainingBytes(r)
	br := bufio.NewReader(r)
	c, err := Sniff(br)
	if err != nil {
		return nil, err
	}
	if c == CodecSCB2 {
		return ReadSCB2(br)
	}
	return decode(br, c, remaining)
}

// Load reads an instance file in any codec, once: SCB2 opens through Map
// (zero-copy where supported, so the instance aliases the mapped pages),
// SCB1 and text decode onto the heap. The caller owns the result and
// should Unmap it when done (a no-op for heap instances).
func Load(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	remaining := remainingBytes(f)
	br := bufio.NewReader(f)
	c, err := Sniff(br)
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	if c == CodecSCB2 {
		return Map(path)
	}
	in, err := decode(br, c, remaining)
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	return in, nil
}

// textLine returns the first field and the rest of the next line that is
// neither blank nor a '#' comment, or io.EOF at the end of the input. Both
// are views valid until the next read, so a pass allocates nothing once
// r.line has grown to the longest line that overflows br's buffer.
func (r *SetReader) textLine() (first, rest []byte, err error) {
	for {
		line, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			r.line = append(r.line[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.br.ReadSlice('\n')
				r.line = append(r.line, line...)
			}
			line = r.line
		}
		if err != nil && err != io.EOF {
			return nil, nil, err
		}
		if first, rest = cutField(line); len(first) > 0 && first[0] != '#' {
			return first, rest, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// cutField splits b around its first field, a run of non-space bytes; the
// field is empty when b holds nothing but space.
func cutField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// atoi parses a field of decimal digits no greater than MaxElement.
func atoi(field []byte) (int, bool) {
	v := 0
	for _, c := range field {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + int(c-'0'); v > MaxElement {
			return 0, false
		}
	}
	return v, len(field) > 0
}

func (r *SetReader) readTextHeader() error {
	word, rest, err := r.textLine()
	switch {
	case err == io.EOF:
		return errors.New("setsystem: empty input")
	case err != nil:
		return err
	}
	nf, rest := cutField(rest)
	mf, rest := cutField(rest)
	if extra, _ := cutField(rest); string(word) != "setcover" || len(mf) == 0 || len(extra) > 0 {
		return errors.New("setsystem: expected header 'setcover <n> <m>'")
	}
	n, ok1 := atoi(nf)
	m, ok2 := atoi(mf)
	if !ok1 || !ok2 {
		return fmt.Errorf("setsystem: bad header values n=%q m=%q (each must lie in [0,%d])", nf, mf, MaxElement)
	}
	r.n, r.m = n, m
	return nil
}

func (r *SetReader) textSet(dst []int32) ([]int32, error) {
	id, elems, err := r.textLine()
	switch {
	case err == io.EOF && r.next < r.m:
		return dst, fmt.Errorf("setsystem: %d of %d sets missing", r.m-r.next, r.m)
	case err != nil:
		return dst, err
	case r.next == r.m:
		return dst, fmt.Errorf("setsystem: more than the header's %d sets", r.m)
	}
	if v, ok := atoi(id); !ok || v != r.next {
		return dst, fmt.Errorf("setsystem: set id %q where set %d belongs (sets are listed in id order)", id, r.next)
	}
	start := len(dst)
	for f, rest := cutField(elems); len(f) > 0; f, rest = cutField(rest) {
		e, ok := atoi(f)
		if !ok || e >= r.n {
			return dst, fmt.Errorf("setsystem: set %d: bad element %q (universe [0,%d))", r.next, f, r.n)
		}
		dst = append(dst, int32(e))
	}
	set := dst[start:]
	if !slices.IsSorted(set) {
		slices.Sort(set)
	}
	return dst[:start+len(slices.Compact(set))], nil
}
