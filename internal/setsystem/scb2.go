package setsystem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// SCB2 — the mmap-native on-disk format. Where SCB1 optimizes for bytes
// (varints, delta coding) and therefore needs a decode pass, SCB2 optimizes
// for load time: the offsets and element sections are stored exactly as the
// in-memory CSR arena lays them out (fixed-width little-endian, 64-byte
// aligned), so on a little-endian 64-bit host an Instance can be backed
// directly by an mmap'd view of the file — opening costs O(pages touched),
// not O(decode), and the resident footprint is page cache, not heap.
//
// Layout (all integers little-endian; byte offsets from the start of file):
//
//	[0,4)    magic "SCB2" (version folded into the magic)
//	[4,8)    reserved, must be zero
//	[8,16)   n        u64  universe size
//	[16,24)  m        u64  number of sets
//	[24,32)  total    u64  Σ|S_i| (element-arena length)
//	[32,40)  offsOff  u64  byte offset of the offsets section (= 64)
//	[40,48)  elemsOff u64  byte offset of the elements section
//	[48,56)  fileSize u64  total file size (truncation check)
//	[56,64)  reserved, must be zero
//
//	offsets section at offsOff:  (m+1) × u64 — the CSR offsets table,
//	                             offsets[0] = 0, offsets[m] = total
//	elements section at elemsOff: total × u32 — the element arena, each
//	                             set's elements sorted strictly increasing
//
// Both sections are 64-byte aligned (the gap is zero padding), so inside a
// page-aligned mapping every section starts on a cache-line boundary and
// the offsets bytes reinterpret directly as []int (int64) and the element
// bytes as []int32. The header is itself exactly one 64-byte line.
//
// Writing requires a normalized instance (sorted, duplicate-free,
// in-range), which is also what lets Map skip any per-set normalization:
// the file is validated once at map time with a single allocation-free
// scan. Decoding without mmap (ReadSCB2) exists for uploads, non-unix
// hosts and big-endian hosts, and produces a heap-backed twin.

// scb2Magic identifies mmap-native instance files (version 2).
const scb2Magic = "SCB2"

// scb2HeaderSize is the fixed header length; also the section alignment.
const scb2HeaderSize = 64

// scb2Align is the required alignment of both sections.
const scb2Align = 64

// scb2Header is the parsed fixed header.
type scb2Header struct {
	n, m, total int
	offsOff     int64
	elemsOff    int64
	fileSize    int64
}

// scb2Layout computes the section offsets and total file size for an
// instance with m sets and total elements.
func scb2Layout(m, total int) (offsOff, elemsOff, fileSize int64) {
	offsOff = scb2HeaderSize
	offsEnd := offsOff + 8*int64(m+1)
	elemsOff = (offsEnd + scb2Align - 1) &^ (scb2Align - 1)
	fileSize = elemsOff + 4*int64(total)
	return offsOff, elemsOff, fileSize
}

// WriteSCB2 encodes the instance in the SCB2 format. The instance must be
// normalized: sorted, duplicate-free sets with elements in [0, N).
func WriteSCB2(w io.Writer, in *Instance) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("setsystem: scb2 encode needs a normalized instance: %w", err)
	}
	m, total := in.M(), in.TotalElems()
	offsOff, elemsOff, fileSize := scb2Layout(m, total)

	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [scb2HeaderSize]byte
	copy(hdr[0:4], scb2Magic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(in.N))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(m))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(total))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(offsOff))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(elemsOff))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(fileSize))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	var buf [8]byte
	// Offsets section: m+1 entries even when the instance is empty, so the
	// mapped view always has a well-formed offsets table.
	for i := 0; i <= m; i++ {
		off := 0
		if len(in.offsets) > 0 {
			off = in.offsets[i]
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	pad := elemsOff - (offsOff + 8*int64(m+1))
	for i := int64(0); i < pad; i++ {
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	for _, e := range in.elems {
		binary.LittleEndian.PutUint32(buf[:], uint32(e))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseSCB2Header validates and decodes the fixed header. Every bound the
// rest of the file depends on is checked here, so corrupt or adversarial
// headers fail fast and cannot drive readers into huge allocations or
// out-of-range section arithmetic.
func parseSCB2Header(hdr []byte) (scb2Header, error) {
	var h scb2Header
	if len(hdr) < scb2HeaderSize {
		return h, fmt.Errorf("setsystem: short scb2 header (%d bytes)", len(hdr))
	}
	if string(hdr[0:4]) != scb2Magic {
		return h, fmt.Errorf("setsystem: bad scb2 magic (not an %s file)", scb2Magic)
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != 0 || binary.LittleEndian.Uint64(hdr[56:]) != 0 {
		return h, fmt.Errorf("setsystem: scb2 reserved header bytes are nonzero (newer format version?)")
	}
	un := binary.LittleEndian.Uint64(hdr[8:])
	um := binary.LittleEndian.Uint64(hdr[16:])
	utotal := binary.LittleEndian.Uint64(hdr[24:])
	uoffsOff := binary.LittleEndian.Uint64(hdr[32:])
	uelemsOff := binary.LittleEndian.Uint64(hdr[40:])
	ufileSize := binary.LittleEndian.Uint64(hdr[48:])
	if un > uint64(MaxElement) || um > uint64(MaxElement) {
		return h, fmt.Errorf("setsystem: scb2 header dimensions overflow (n=%d m=%d)", un, um)
	}
	if utotal > uint64(math.MaxInt)/4 || utotal > um*un {
		return h, fmt.Errorf("setsystem: scb2 header total %d impossible for n=%d m=%d", utotal, un, um)
	}
	if uoffsOff != scb2HeaderSize {
		return h, fmt.Errorf("setsystem: scb2 offsets section at %d, want %d", uoffsOff, scb2HeaderSize)
	}
	offsEnd := uoffsOff + 8*(um+1) // um ≤ 2^31, cannot overflow
	if uelemsOff%scb2Align != 0 || uelemsOff < offsEnd {
		return h, fmt.Errorf("setsystem: scb2 elements section at %d overlaps or is misaligned (offsets end at %d)",
			uelemsOff, offsEnd)
	}
	if uelemsOff-offsEnd >= scb2Align {
		return h, fmt.Errorf("setsystem: scb2 inter-section gap %d exceeds alignment padding", uelemsOff-offsEnd)
	}
	want := uelemsOff + 4*utotal
	if ufileSize != want || ufileSize > uint64(math.MaxInt64) {
		return h, fmt.Errorf("setsystem: scb2 file size %d, sections need %d", ufileSize, want)
	}
	h.n, h.m, h.total = int(un), int(um), int(utotal)
	h.offsOff, h.elemsOff, h.fileSize = int64(uoffsOff), int64(uelemsOff), int64(ufileSize)
	return h, nil
}

// checkOffsets validates the structural invariants Validate cannot (it
// would panic slicing a non-monotone table): offsets start at 0, never
// decrease, and end exactly at total.
func checkOffsets(offsets []int, total int) error {
	if len(offsets) == 0 || offsets[0] != 0 {
		return fmt.Errorf("setsystem: scb2 offsets table does not start at 0")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("setsystem: scb2 offsets table decreases at entry %d", i)
		}
	}
	if last := offsets[len(offsets)-1]; last != total {
		return fmt.Errorf("setsystem: scb2 offsets end at %d, element section holds %d", last, total)
	}
	return nil
}

// readChunkPrealloc caps upfront slice capacity while decoding untrusted
// streams: a header may claim billions of entries, but every claimed entry
// still needs real input bytes, so readers start at a bounded capacity and
// let append grow with the data actually read.
const readChunkPrealloc = 1 << 17

// ReadSCB2 decodes an SCB2 stream into a heap-backed instance and
// validates it. It is the no-mmap twin of Map: uploads, pipes and hosts
// where zero-copy mapping is unavailable decode through here.
func ReadSCB2(r io.Reader) (*Instance, error) {
	var hdr [scb2HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("setsystem: scb2 header: %w", err)
	}
	h, err := parseSCB2Header(hdr[:])
	if err != nil {
		return nil, err
	}
	offsets, err := readOffsetsSection(r, h.m+1)
	if err != nil {
		return nil, fmt.Errorf("setsystem: scb2 offsets section: %w", err)
	}
	if pad := h.elemsOff - (h.offsOff + 8*int64(h.m+1)); pad > 0 {
		if _, err := io.CopyN(io.Discard, r, pad); err != nil {
			return nil, fmt.Errorf("setsystem: scb2 section padding: %w", err)
		}
	}
	elems, err := readElemsSection(r, h.total)
	if err != nil {
		return nil, fmt.Errorf("setsystem: scb2 element section: %w", err)
	}
	if err := checkOffsets(offsets, h.total); err != nil {
		return nil, err
	}
	in := &Instance{N: h.n, offsets: offsets, elems: elems}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// readOffsetsSection decodes count little-endian u64 offsets, in bounded
// chunks so a lying header cannot force a giant upfront allocation.
func readOffsetsSection(r io.Reader, count int) ([]int, error) {
	out := make([]int, 0, min(count, readChunkPrealloc))
	var buf [8 << 10]byte
	for len(out) < count {
		k := min(count-len(out), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:k*8]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			v := binary.LittleEndian.Uint64(buf[i*8:])
			if v > uint64(math.MaxInt)/4 {
				return nil, fmt.Errorf("offset %d out of range", v)
			}
			out = append(out, int(v))
		}
	}
	return out, nil
}

// readElemsSection decodes count little-endian u32 elements, chunked like
// readOffsetsSection.
func readElemsSection(r io.Reader, count int) ([]int32, error) {
	out := make([]int32, 0, min(count, readChunkPrealloc))
	var buf [8 << 10]byte
	for len(out) < count {
		k := min(count-len(out), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:k*4]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			v := binary.LittleEndian.Uint32(buf[i*4:])
			if v > uint32(MaxElement) {
				return nil, fmt.Errorf("element %d overflows int32", v)
			}
			out = append(out, int32(v))
		}
	}
	return out, nil
}
