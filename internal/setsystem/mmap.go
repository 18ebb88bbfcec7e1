package setsystem

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"unsafe"
)

// Backing identifies the storage behind an Instance's CSR arrays.
type Backing int

const (
	// BackingHeap is the ordinary case: offsets and elements live on the
	// Go heap and are owned by the instance.
	BackingHeap Backing = iota
	// BackingMapped means the arrays are views into an mmap'd SCB2 file:
	// read-only, resident in page cache rather than heap, and valid only
	// until Unmap. Mutating methods (SortSets, Builder reuse) must not be
	// called on a mapped instance.
	BackingMapped
)

func (b Backing) String() string {
	switch b {
	case BackingHeap:
		return "heap"
	case BackingMapped:
		return "mapped"
	default:
		return fmt.Sprintf("backing(%d)", int(b))
	}
}

// Backing reports what storage backs the instance. Callers that cache or
// account instances (the registry) use it to charge mapped bytes and heap
// bytes to the right ledger and to unmap on eviction.
func (in *Instance) Backing() Backing { return in.backing }

// MappedBytes returns the size of the mapping backing the instance, or 0
// for heap-backed instances.
func (in *Instance) MappedBytes() int64 { return in.mappedBytes }

// Advice is an access-pattern hint for the pages backing a mapped
// instance, forwarded to the kernel via madvise on Linux.
type Advice int

const (
	// AdviseSequential hints that the mapping will be read front to back
	// (streaming passes walk the CSR arena in offset order), enabling
	// aggressive kernel readahead. Map applies it to every new mapping.
	AdviseSequential Advice = iota
	// AdviseWillNeed hints that the whole mapping is about to be used,
	// prompting the kernel to start paging it in now. The registry issues
	// it when an instance is pinned for a solve, so the first pass overlaps
	// page-in with compute instead of faulting page by page.
	AdviseWillNeed
)

// Advise passes an access-pattern hint for the instance's mapped pages to
// the kernel. It is a no-op (and nil) on heap-backed or already-unmapped
// instances and on every OS but Linux: hints are best-effort by
// definition, so callers typically ignore the error.
func (in *Instance) Advise(a Advice) error {
	if in.mapData == nil {
		return nil
	}
	return madviseData(in.mapData, a)
}

// Unmap releases the mapping behind a mapped instance and invalidates it:
// the CSR views are nilled so later use fails fast instead of touching
// unmapped memory. It is idempotent and a no-op on heap instances.
func (in *Instance) Unmap() error {
	if in.unmap == nil {
		return nil
	}
	u := in.unmap
	in.unmap = nil
	in.offsets, in.elems = nil, nil
	in.mappedBytes = 0
	in.mapData = nil
	return u()
}

// hostLittleEndian reports whether the host stores integers little-endian,
// the byte order SCB2 sections are written in.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MapSupported reports whether Map can back an Instance by the file pages
// directly on this host: mmap must exist and the host must read the
// little-endian 64-bit sections without conversion. When false, Map still
// works but decodes into the heap (ReadSCB2).
func MapSupported() bool {
	return mmapAvailable && hostLittleEndian && bits.UintSize == 64
}

// Map opens an SCB2 file as an Instance backed directly by the mapped file
// pages: no decode pass, no per-set allocation — open cost is the header
// read plus one allocation-free validation scan (structural offsets check
// and element range/order check), and the arena stays in page cache. The
// caller owns the mapping and must Unmap when done (the registry does so
// on eviction). On hosts without zero-copy support the file is decoded
// into a heap-backed instance instead; check Backing to know which you
// got.
func Map(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !MapSupported() {
		return readSCB2File(f)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < scb2HeaderSize {
		return nil, fmt.Errorf("setsystem: %s: file too short for an scb2 header (%d bytes)", path, size)
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("setsystem: %s: file too large to map (%d bytes)", path, size)
	}
	var hdr [scb2HeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("setsystem: %s: scb2 header: %w", path, err)
	}
	h, err := parseSCB2Header(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	if h.fileSize != size {
		return nil, fmt.Errorf("setsystem: %s: header says %d bytes, file has %d (truncated or padded)",
			path, h.fileSize, size)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: mmap: %w", path, err)
	}
	// Reinterpret the sections in place. The mapping is page-aligned and the
	// sections 64-byte aligned within it, so both casts are aligned; the
	// header guarantees both ranges lie inside the file.
	offsets := unsafe.Slice((*int)(unsafe.Pointer(&data[h.offsOff])), h.m+1)
	var elems []int32
	if h.total > 0 {
		elems = unsafe.Slice((*int32)(unsafe.Pointer(&data[h.elemsOff])), h.total)
	}
	in := &Instance{
		N: h.n, offsets: offsets, elems: elems,
		backing:     BackingMapped,
		mappedBytes: size,
		mapData:     data,
		unmap:       func() error { return munmapFile(data) },
	}
	// Streaming passes (and the validation scan below) walk the arena front
	// to back; tell the kernel so readahead works with us. Best-effort.
	_ = in.Advise(AdviseSequential)
	// One sequential, allocation-free scan stands in for the decode pass:
	// offsets must be monotone before Set(i) may slice, then Validate checks
	// element range and per-set ordering on the mapped bytes directly.
	if err := checkOffsets(offsets, h.total); err != nil {
		in.Unmap()
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	if err := in.Validate(); err != nil {
		in.Unmap()
		return nil, fmt.Errorf("setsystem: %s: %w", path, err)
	}
	return in, nil
}

// readSCB2File is Map's heap fallback: decode the whole file through
// ReadSCB2 (which issues its own bounded chunk reads, so no extra
// buffering is needed).
func readSCB2File(f *os.File) (*Instance, error) {
	in, err := ReadSCB2(f)
	if err != nil {
		return nil, fmt.Errorf("setsystem: %s: %w", f.Name(), err)
	}
	return in, nil
}
