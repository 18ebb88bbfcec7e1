package setsystem

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"streamcover/internal/rng"
)

func TestBinaryRoundTrip(t *testing.T) {
	cases := []*Instance{
		FromSets(0, nil),                     // empty universe, m=0
		FromSets(5, nil),                     // m=0
		FromSets(1, [][]int{{0}}),            // singleton universe
		FromSets(8, [][]int{{}, {0, 7}, {}}), // empty sets interleaved
		FromSets(6, [][]int{{0, 1, 2, 3, 4, 5}}),
		Uniform(rng.New(1), 300, 40, 0, 120),
		Zipf(rng.New(2), 200, 30, 1.5, 60),
	}
	// Max-universe elements: the largest encodable element round-trips.
	big := FromSets(MaxElement, [][]int{{0, MaxElement - 1}})
	cases = append(cases, big)
	for i, in := range cases {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, in); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if !equalInstances(got, in) {
			t.Fatalf("case %d: binary round trip differs", i)
		}
	}
}

func TestBinaryQuickRoundTripMatchesText(t *testing.T) {
	// Property: text and binary codecs decode to identical instances, and
	// binary→text→binary is the identity.
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 20
		in := Uniform(rng.New(seed), n, m, 0, n)

		var tbuf, bbuf bytes.Buffer
		if err := Write(&tbuf, in); err != nil {
			return false
		}
		if err := WriteBinary(&bbuf, in); err != nil {
			return false
		}
		fromText, err1 := Read(&tbuf)
		fromBin, err2 := ReadBinary(&bbuf)
		if err1 != nil || err2 != nil {
			return false
		}
		if !equalInstances(fromText, fromBin) || !equalInstances(fromBin, in) {
			return false
		}
		// Cross the codecs: binary → text → binary.
		var tbuf2, bbuf2 bytes.Buffer
		if err := Write(&tbuf2, fromBin); err != nil {
			return false
		}
		again, err := Read(&tbuf2)
		if err != nil {
			return false
		}
		if err := WriteBinary(&bbuf2, again); err != nil {
			return false
		}
		final, err := ReadBinary(&bbuf2)
		return err == nil && equalInstances(final, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsUnnormalized(t *testing.T) {
	for i, in := range []*Instance{
		FromSets(5, [][]int{{2, 1}}), // unsorted
		FromSets(5, [][]int{{1, 1}}), // duplicate
		FromSets(5, [][]int{{9}}),    // out of range
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, in); err == nil {
			t.Errorf("case %d: unnormalized instance encoded", i)
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, FromSets(10, [][]int{{0, 3}, {1, 2, 9}})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := [][]byte{
		{},                       // empty
		[]byte("setcover 3 1\n"), // text file fed to the binary decoder
		good[:2],                 // truncated magic
		good[:len(good)-1],       // truncated payload
		good[:6],                 // truncated header
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// A payload whose deltas escape the universe must fail, not produce an
	// invalid instance: encode {0, 9} under n=10, then shrink n in a forged
	// header by re-encoding a smaller instance and splicing payloads. The
	// simpler equivalent: decode with a length table claiming more elements
	// than the payload holds is covered by the truncation cases above, so
	// here we just check the in-range guard directly.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, FromSets(10, [][]int{{0, 9}})); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Patch n from 10 to 5 (single-byte varint right after the magic).
	raw[len(binaryMagic)] = 5
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("out-of-range payload accepted after header patch")
	}
}

func TestBinaryDecodeWrappingDelta(t *testing.T) {
	// A corrupt delta near 2^64 must not wrap the running element past the
	// bounds check: hand-craft a set {5, <delta 2^64-6>} over n=10 and
	// check both the set decoder and the instance decoder reject it.
	var payload bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range []uint64{5, ^uint64(0) - 5} {
		k := binary.PutUvarint(tmp[:], v)
		payload.Write(tmp[:k])
	}
	dec := bytes.NewReader(payload.Bytes())
	if got, err := DecodeBinarySet(dec, nil, 2, 10); err == nil {
		t.Fatalf("wrapping delta decoded to %v without error", got)
	}

	var file bytes.Buffer
	file.WriteString(binaryMagic)
	for _, v := range []uint64{10, 1, 2, 2} { // n, m, total, len_0
		k := binary.PutUvarint(tmp[:], v)
		file.Write(tmp[:k])
	}
	file.Write(payload.Bytes())
	if _, err := ReadBinary(bytes.NewReader(file.Bytes())); err == nil {
		t.Fatal("wrapping delta accepted by ReadBinary")
	}
}

func TestReadAutoDispatch(t *testing.T) {
	in := Uniform(rng.New(7), 50, 12, 0, 25)
	var tbuf, bbuf bytes.Buffer
	if err := Write(&tbuf, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, in); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadAuto(&tbuf)
	if err != nil {
		t.Fatalf("auto text: %v", err)
	}
	fromBin, err := ReadAuto(&bbuf)
	if err != nil {
		t.Fatalf("auto binary: %v", err)
	}
	if !equalInstances(fromText, in) || !equalInstances(fromBin, in) {
		t.Fatal("ReadAuto decoded a different instance")
	}
	if _, err := ReadAuto(strings.NewReader("")); err == nil {
		t.Fatal("ReadAuto accepted empty input")
	}
}

// TestReadBinaryReservesFromKnownLength pins the decode reservation for
// readers that know their length (bytes.Reader, regular files): past the
// fixed clamp that guards readers of unknown length, the arena is still
// reserved once, so allocations do not grow with the element count.
func TestReadBinaryReservesFromKnownLength(t *testing.T) {
	dir := t.TempDir()
	encode := func(m int) (raw []byte, path string) {
		in := Uniform(rng.New(3), 4096, m, 1200, 2000)
		if in.TotalElems() <= readChunkPrealloc {
			t.Fatalf("test premise broken: %d elements within the %d clamp", in.TotalElems(), readChunkPrealloc)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, in); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, strconv.Itoa(m)+".scb1")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), path
	}
	readFile := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = ReadAuto(f)
		return err
	}
	readers := []struct {
		name string
		read func(raw []byte, path string) error
	}{
		{"ReadBinary/bytes.Reader", func(raw []byte, _ string) error { _, err := ReadBinary(bytes.NewReader(raw)); return err }},
		{"ReadAuto/bytes.Reader", func(raw []byte, _ string) error { _, err := ReadAuto(bytes.NewReader(raw)); return err }},
		{"ReadAuto/os.File", func(_ []byte, path string) error { return readFile(path) }},
	}
	smallRaw, smallPath := encode(120)
	largeRaw, largePath := encode(480)
	for _, r := range readers {
		allocs := func(raw []byte, path string) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := r.read(raw, path); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(smallRaw, smallPath), allocs(largeRaw, largePath); small != large {
			t.Errorf("%s: %.0f allocs for the small instance, %.0f for the 4x larger one", r.name, small, large)
		}
	}
}
