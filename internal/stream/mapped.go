package stream

import (
	"streamcover/internal/setsystem"
)

// MappedFileStream streams a set cover instance from an SCB2 file backed
// by an mmap'd view (setsystem.Map): open cost is O(pages touched) — a
// header read plus one validation scan, no decode pass, O(1) allocations
// in the instance size — and each pass walks the mapped CSR arena exactly
// like an in-memory InstanceStream, because it is one. Items are views
// into the mapping, stable for the life of the stream, so the driver's
// pool broadcasts them without copying (StableItems is inherited from
// InstanceStream and reports true).
//
// On hosts without zero-copy mapping support setsystem.Map falls back to a
// heap decode; the stream behaves identically either way.
type MappedFileStream struct {
	*InstanceStream
	inst *setsystem.Instance
}

// OpenMapped maps an SCB2 file and returns a multi-pass stream over it.
// The caller must Close the stream when done; Close unmaps the file, which
// invalidates any outstanding item views.
func OpenMapped(path string) (*MappedFileStream, error) {
	inst, err := setsystem.Map(path)
	if err != nil {
		return nil, err
	}
	return &MappedFileStream{
		InstanceStream: FromInstance(inst, Adversarial, nil),
		inst:           inst,
	}, nil
}

// Err implements Failer. A mapped pass cannot fail mid-pass: the file was
// fully validated at open and the kernel pages it in on demand.
func (ms *MappedFileStream) Err() error { return nil }

// Close releases the mapping.
func (ms *MappedFileStream) Close() error { return ms.inst.Unmap() }
