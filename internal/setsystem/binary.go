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

// BinaryMagic returns the leading bytes of the binary format, for format
// sniffing by CLIs and stream openers.
func BinaryMagic() []byte { return []byte(binaryMagic) }

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
	return readBinary(r, remainingBytes(r))
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

// readBinary is ReadBinary with the input's remaining byte count (-1 when
// unknown) supplied by the caller, so ReadAuto can measure it before
// wrapping r in a bufio.Reader.
func readBinary(r io.Reader, remaining int) (*Instance, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	n, m, lens, err := ReadBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(n)
	total := 0
	for _, l := range lens {
		total += int(l)
	}
	// The header's total is untrusted until the payload backs it up: a tiny
	// file can claim a multi-terabyte arena (small m, huge per-set lengths).
	// Every set and every element costs at least one input byte, so when r
	// knows its length the reservation is capped by the bytes actually
	// present; otherwise it is capped at a fixed chunk and append grows with
	// the varints actually decoded — either way a truncated payload errors
	// long before the claimed size is ever allocated.
	limit := readChunkPrealloc
	if remaining >= 0 {
		limit = remaining
	}
	b.Grow(min(m, limit), min(total, limit))
	for i := 0; i < m; i++ {
		prev := int32(-1)
		for j := int32(0); j < lens[i]; j++ {
			e, err := decodeElem(br, &prev, j == 0, n)
			if err != nil {
				return nil, fmt.Errorf("setsystem: binary set %d: %w", i, err)
			}
			b.Append(e)
		}
		b.EndSet()
	}
	in := b.Build()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// ReadBinaryHeader consumes the magic, dimensions and length table. It is
// shared with the multi-pass stream.BinaryFileStream, which reads the
// header once and then decodes the payload set by set with DecodeBinarySet.
func ReadBinaryHeader(br io.ByteReader) (n, m int, lens []int32, err error) {
	for i := 0; i < len(binaryMagic); i++ {
		c, err := br.ReadByte()
		if err != nil {
			return 0, 0, nil, fmt.Errorf("setsystem: short binary magic: %w", err)
		}
		if c != binaryMagic[i] {
			return 0, 0, nil, fmt.Errorf("setsystem: bad binary magic (not an %s file)", binaryMagic)
		}
	}
	un, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("setsystem: binary header n: %w", err)
	}
	um, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("setsystem: binary header m: %w", err)
	}
	utotal, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("setsystem: binary header total: %w", err)
	}
	if un > uint64(MaxElement) || um > uint64(MaxElement) {
		return 0, 0, nil, fmt.Errorf("setsystem: binary header dimensions overflow (n=%d m=%d)", un, um)
	}
	n, m = int(un), int(um)
	// m is untrusted: a five-byte header can claim 2^31 sets. Each claimed
	// length still costs at least one payload byte, so growing the table
	// with append bounds the allocation by the input actually present
	// instead of the claim.
	lens = make([]int32, 0, min(m, readChunkPrealloc))
	var total uint64
	for i := 0; i < m; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("setsystem: binary length table: %w", err)
		}
		if l > uint64(n) {
			return 0, 0, nil, fmt.Errorf("setsystem: set %d length %d exceeds universe %d", i, l, n)
		}
		lens = append(lens, int32(l))
		total += l
	}
	if total != utotal {
		return 0, 0, nil, fmt.Errorf("setsystem: length table sums to %d, header says %d", total, utotal)
	}
	return n, m, lens, nil
}

// DecodeBinarySet decodes the next payload set (of the given length, over
// universe [0, n)) by appending its elements to dst[:0] and returning the
// extended slice — pass the previous call's return value back in to decode
// an entire pass with zero steady-state allocations.
func DecodeBinarySet(br io.ByteReader, dst []int32, length int32, n int) ([]int32, error) {
	dst = dst[:0]
	prev := int32(-1)
	for j := int32(0); j < length; j++ {
		e, err := decodeElem(br, &prev, j == 0, n)
		if err != nil {
			return dst, err
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
