package setsystem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary codec — the compact on-disk twin of the text format, designed so a
// multi-pass file stream can re-read it with a small reusable buffer and no
// integer re-parsing. Layout (all integers unsigned LEB128 varints unless
// noted):
//
//	magic   4 bytes  "SCB1" (version folded into the magic)
//	n       uvarint  universe size
//	m       uvarint  number of sets
//	total   uvarint  Σ|S_i| (arena length; lets a reader pre-allocate)
//	len_i   uvarint  ×m — per-set lengths (the offsets table in delta form)
//	payload          per set, in id order: the elements delta-encoded —
//	                 first element as-is, then successor gaps minus one
//	                 (sets are sorted and duplicate-free, so every gap ≥ 1)
//
// The length table up front means a reader knows every set boundary before
// touching the payload — the on-disk mirror of the in-memory CSR offsets —
// and a future mmap/seek implementation can index without scanning. Writing
// requires a normalized instance (sorted, duplicate-free, in-range); Write
// fails otherwise rather than silently emitting an undecodable stream.

// binaryMagic identifies binary instance files (version 1).
const binaryMagic = "SCB1"

// WriteBinary encodes the instance in the binary format. The instance must
// be normalized: sorted, duplicate-free sets with elements in [0, N).
func WriteBinary(w io.Writer, in *Instance) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("setsystem: binary encode needs a normalized instance: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	m := in.M()
	if err := putUvarint(uint64(in.N)); err != nil {
		return err
	}
	if err := putUvarint(uint64(m)); err != nil {
		return err
	}
	if err := putUvarint(uint64(in.TotalElems())); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		if err := putUvarint(uint64(in.SetLen(i))); err != nil {
			return err
		}
	}
	for i := 0; i < m; i++ {
		prev := int32(-1)
		for j, e := range in.Set(i) {
			var d uint64
			if j == 0 {
				d = uint64(e)
			} else {
				d = uint64(e - prev - 1)
			}
			if err := putUvarint(d); err != nil {
				return err
			}
			prev = e
		}
	}
	return bw.Flush()
}

// ReadBinary decodes an instance from the binary format and validates it.
func ReadBinary(r io.Reader) (*Instance, error) {
	remaining := remainingBytes(r)
	br := bufio.NewReader(r)
	c, err := Sniff(br)
	if err == nil && c != CodecSCB1 {
		err = fmt.Errorf("setsystem: bad binary magic (not an %s file)", binaryMagic)
	}
	if err != nil {
		return nil, err
	}
	return decode(br, CodecSCB1, remaining)
}

// remainingBytes reports how many bytes r still holds, when r can tell: a
// reader with Len (bytes.Reader, strings.Reader, bytes.Buffer) or a regular
// file (size minus the current offset). It returns -1 for readers of
// unknown length, such as pipes and HTTP request bodies.
func remainingBytes(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Len() int }:
		return v.Len()
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return int(max(fi.Size()-off, 0))
	}
	return -1
}

// readSCB1Header consumes the magic Sniff has reported, the dimensions and
// the length table.
func (r *SetReader) readSCB1Header() error {
	r.br.Discard(len(binaryMagic)) // Sniff peeked it, so it is buffered
	un, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("setsystem: binary header n: %w", err)
	}
	um, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("setsystem: binary header m: %w", err)
	}
	utotal, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("setsystem: binary header total: %w", err)
	}
	if un > uint64(MaxElement) || um > uint64(MaxElement) {
		return fmt.Errorf("setsystem: binary header dimensions overflow (n=%d m=%d)", un, um)
	}
	r.n, r.m = int(un), int(um)
	// m is untrusted: a five-byte header can claim 2^31 sets. Each claimed
	// length still costs at least one payload byte, so growing the table
	// with append bounds the allocation by the input actually present
	// instead of the claim.
	r.lens = make([]int32, 0, min(r.m, readChunkPrealloc))
	var total uint64
	for i := 0; i < r.m; i++ {
		l, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("setsystem: binary length table: %w", err)
		}
		if l > uint64(r.n) {
			return fmt.Errorf("setsystem: set %d length %d exceeds universe %d", i, l, r.n)
		}
		r.lens = append(r.lens, int32(l))
		total += l
	}
	if total != utotal {
		return fmt.Errorf("setsystem: length table sums to %d, header says %d", total, utotal)
	}
	r.total = int(total)
	return nil
}

// scb1Set appends the next payload set to dst.
func (r *SetReader) scb1Set(dst []int32) ([]int32, error) {
	if r.next == r.m {
		return dst, io.EOF
	}
	br, n, l, prev := r.br, r.n, r.lens[r.next], int32(-1)
	for j := int32(0); j < l; j++ {
		e, err := decodeElem(br, &prev, j == 0, n)
		if err != nil {
			return dst, fmt.Errorf("setsystem: binary set %d: %w", r.next, err)
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// decodeElem reads one delta-encoded element, updating *prev. Bounds are
// checked against n so a corrupt payload fails fast instead of producing an
// invalid instance; the delta is bounded before the addition so a huge
// varint cannot wrap uint64 past the range check.
func decodeElem(br io.ByteReader, prev *int32, first bool, n int) (int32, error) {
	d, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if first {
		if d >= uint64(n) {
			return 0, fmt.Errorf("element %d out of range [0,%d)", d, n)
		}
		*prev = int32(d)
		return *prev, nil
	}
	// e = prev + 1 + d must stay below n, i.e. d < n − prev − 1 (prev was
	// itself validated < n, so the subtraction cannot underflow).
	if room := uint64(n) - uint64(*prev) - 1; d >= room {
		return 0, fmt.Errorf("element delta %d after %d escapes [0,%d)", d, *prev, n)
	}
	*prev += 1 + int32(d)
	return *prev, nil
}
