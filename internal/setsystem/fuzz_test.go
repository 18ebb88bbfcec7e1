package setsystem

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streamcover/internal/rng"
)

// Fuzz harnesses for the on-disk decoders. The contract under fuzzing is
// uniform: arbitrary bytes must either decode into a Validate-clean
// instance or return an error — never panic, and never allocate
// proportionally to a header claim instead of the input actually present
// (the reservation caps in codec.go/binary.go/scb2.go; see the over-claim
// seeds).
//
// Run the full fuzzers locally with, e.g.:
//
//	go test -fuzz FuzzReadText  -fuzztime 30s ./internal/setsystem
//	go test -fuzz FuzzReadBinary -fuzztime 30s ./internal/setsystem
//	go test -fuzz FuzzReadSCB2  -fuzztime 30s ./internal/setsystem
//
// CI executes the seed corpus below as ordinary tests.

// fuzzSeeds returns valid encodings plus adversarial mutations shared by
// both fuzzers: truncations, bit flips, and headers whose length tables
// claim far more data than the file carries.
func fuzzSeeds(t *testing.F, encode func(*Instance) []byte) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, in := range []*Instance{
		{N: 0},
		{N: 9},
		FromSets(8, [][]int{{0, 3, 7}, {}, {1, 2}}),
		Zipf(rng.New(2), 128, 24, 1.5, 40),
	} {
		b := encode(in)
		seeds = append(seeds, b)
		if len(b) > 5 {
			seeds = append(seeds, b[:len(b)/2], b[:5])
			flip := append([]byte(nil), b...)
			flip[len(flip)/2] ^= 0x40
			seeds = append(seeds, flip)
		}
	}
	return seeds
}

func FuzzReadText(f *testing.F) {
	for _, s := range fuzzSeeds(f, func(in *Instance) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}) {
		f.Add(s)
	}
	f.Add([]byte("setcover 1 50000000"))              // over-claim: 5·10^7 sets in 19 bytes
	f.Add([]byte("setcover 5 2\n1 1\n0 2\n"))         // sets out of id order
	f.Add([]byte("setcover 4 2\n0 0 1 2 3\n0 0 1\n")) // duplicate id, set 1 missing
	f.Add([]byte("setcover 3000000000 1\n0 1\n"))     // n beyond the int32 limit

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Lines, fields and the arena each cost a small multiple of the
		// bytes they came from; a claim-sized reservation would not fit.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("Read allocated %d bytes on a %d-byte input", alloc, len(data))
		}
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("Read returned an invalid instance: %v", verr)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	for _, s := range fuzzSeeds(f, func(in *Instance) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, in); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}) {
		f.Add(s)
	}
	// Over-claim seeds: tiny files whose headers assert huge tables. The
	// clamped decoders must reject these without materializing the claim.
	f.Add([]byte("SCB1\xff\xff\xff\xff\x07\xff\xff\xff\xff\x07\xff\xff\xff\xff\x07")) // n=m=total=2^31-ish
	f.Add([]byte("SCB1\x80\x80\x80\x80\x08\x04\x90\xce\xb3\x9f\x08"))                 // small m, giant total claim

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("ReadBinary returned an invalid instance: %v", verr)
		}
	})
}

func FuzzReadSCB2(f *testing.F) {
	for _, s := range fuzzSeeds(f, func(in *Instance) []byte {
		var buf bytes.Buffer
		if err := WriteSCB2(&buf, in); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}) {
		f.Add(s)
	}
	// A syntactically plausible header claiming 2^30 sets in a 72-byte file.
	head := make([]byte, scb2HeaderSize+8)
	copy(head, scb2Magic)
	head[16], head[19] = 0, 64 // m = 64<<24
	f.Add(head)

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadSCB2(bytes.NewReader(data))
		if err == nil {
			if verr := in.Validate(); verr != nil {
				t.Fatalf("ReadSCB2 returned an invalid instance: %v", verr)
			}
		}
		// The mapped opener must uphold the same contract on the same bytes
		// (it validates through header parse + offsets check + Validate on
		// the mapped view, a separate code path from the stream decoder).
		path := filepath.Join(t.TempDir(), "fuzz.scb2")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Skip("cannot stage fuzz file")
		}
		mapped, merr := Map(path)
		if (merr == nil) != (err == nil) {
			t.Fatalf("Map and ReadSCB2 disagree: map err=%v, read err=%v", merr, err)
		}
		if merr == nil {
			if !instancesEqual(in, mapped) {
				mapped.Unmap()
				t.Fatal("Map and ReadSCB2 decode different instances")
			}
			mapped.Unmap()
		}
	})
}
