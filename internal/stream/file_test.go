package stream

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// codecs are the instance file encodings Open reads: text and SCB1 stream
// through FileStream, SCB2 through MappedFileStream.
var codecs = []struct {
	name   string
	encode func(io.Writer, *setsystem.Instance) error
}{
	{"text", setsystem.Write},
	{"scb1", setsystem.WriteBinary},
	{"scb2", setsystem.WriteSCB2},
}

// writeInstance writes in to a temporary file with encode and returns the
// file's path.
func writeInstance(t *testing.T, in *setsystem.Instance, encode func(io.Writer, *setsystem.Instance) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := encode(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFileStreamMatchesInstanceStream opens each codec's file and requires
// three passes, each Reset rewinding to the payload, to equal the
// in-memory stream of the same instance item for item.
func TestFileStreamMatchesInstanceStream(t *testing.T) {
	in := setsystem.Uniform(rng.New(1), 100, 25, 0, 40)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(writeInstance(t, in, c.encode))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Universe() != in.N || s.Len() != in.M() {
				t.Fatalf("header: %d/%d", s.Universe(), s.Len())
			}
			requireSamePasses(t, s, FromInstance(in, Adversarial, nil), 3)
		})
	}
}

// TestFileStreamDrivesAlgorithm runs a three-pass algorithm over each
// codec's file.
func TestFileStreamDrivesAlgorithm(t *testing.T) {
	in := setsystem.Uniform(rng.New(2), 64, 12, 4, 30)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			s, err := Open(writeInstance(t, in, c.encode))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			acc, err := Run(s, &countingAlg{passesWanted: 3}, 5)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Passes != 3 || acc.Items != 36 {
				t.Fatalf("acc = %+v", acc)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFileStreamWithComments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.sc")
	content := "# generated\nsetcover 5 2\n# first\n0 0 1\n\n1 2 3 4\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Reset()
	n := 0
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
		n++
	}
	if fs.Err() != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, fs.Err())
	}
}

func TestFileStreamErrors(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.sc")
	os.WriteFile(bad, []byte("not a header\n"), 0o644)
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("bad header accepted")
	}
	// Out-of-range element discovered mid-stream.
	oor := filepath.Join(t.TempDir(), "oor.sc")
	os.WriteFile(oor, []byte("setcover 3 1\n0 0 7\n"), 0o644)
	fs, err := OpenFile(oor)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Reset()
	if _, ok := fs.Next(); ok {
		t.Fatal("out-of-range element accepted")
	}
	if fs.Err() == nil {
		t.Fatal("Err() nil after bad element")
	}
	// Missing sets detected at end of pass.
	short := filepath.Join(t.TempDir(), "short.sc")
	os.WriteFile(short, []byte("setcover 3 2\n0 0 1\n"), 0o644)
	fs2, err := OpenFile(short)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	fs2.Reset()
	for {
		if _, ok := fs2.Next(); !ok {
			break
		}
	}
	if fs2.Err() == nil {
		t.Fatal("missing set not reported")
	}
	// Set 0 listed twice and set 1 missing: the k-th set line must name
	// set k, as setsystem.Load requires.
	dup := filepath.Join(t.TempDir(), "dup.sc")
	os.WriteFile(dup, []byte("setcover 4 2\n0 0 1 2 3\n0 0 1\n"), 0o644)
	fs3, err := OpenFile(dup)
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	if _, err := Run(fs3, &countingAlg{passesWanted: 1}, 2); err == nil {
		t.Fatal("duplicate set id streamed without error")
	}
}

// TestFileStreamNormalizesSets pins the sorted/duplicate-free invariant on
// the streaming path: a text line with unsorted and duplicated elements is
// legal input (the in-memory reader normalizes it via SortSets), and the
// stream must yield the same normalized set — every consumer, scalar loop
// and word-mask run kernel alike, assumes the invariant.
func TestFileStreamNormalizesSets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.sc")
	content := "setcover 8 2\n0 3 7 7 2\n1 5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Reset()
	item, ok := fs.Next()
	if !ok {
		t.Fatalf("Next failed: %v", fs.Err())
	}
	want := []int32{2, 3, 7}
	if len(item.Elems) != len(want) {
		t.Fatalf("set 0 = %v, want %v", item.Elems, want)
	}
	for i, e := range want {
		if item.Elems[i] != e {
			t.Fatalf("set 0 = %v, want %v", item.Elems, want)
		}
	}
	if _, ok := fs.Next(); !ok {
		t.Fatalf("second set missing: %v", fs.Err())
	}
	if _, ok := fs.Next(); ok || fs.Err() != nil {
		t.Fatalf("expected clean end of pass, err=%v", fs.Err())
	}
}

func TestBinaryFileStreamTruncatedPayload(t *testing.T) {
	in := setsystem.Uniform(rng.New(3), 64, 10, 8, 30)
	path := writeInstance(t, in, setsystem.WriteBinary)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.scb")
	if err := os.WriteFile(trunc, raw[:len(raw)-len(raw)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenBinaryFile(trunc)
	if err != nil {
		t.Fatal(err) // header + length table survive; payload is cut
	}
	defer fs.Close()
	fs.Reset()
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
	}
	if fs.Err() == nil {
		t.Fatal("truncated payload streamed without error")
	}
	// The driver must surface the failure, not treat it as end-of-pass.
	fs2, err := OpenBinaryFile(trunc)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := Run(fs2, &countingAlg{passesWanted: 2}, 4); err == nil {
		t.Fatal("Run swallowed a mid-pass stream error")
	}
}

func TestRunPropagatesTextFileError(t *testing.T) {
	// The historical bug: a truncated text file ended the pass cleanly and
	// the driver kept going. Run must now fail.
	path := filepath.Join(t.TempDir(), "short.sc")
	if err := os.WriteFile(path, []byte("setcover 3 2\n0 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := Run(fs, &countingAlg{passesWanted: 2}, 4); err == nil {
		t.Fatal("Run swallowed a missing-set stream error")
	}
}

func TestOpenAutoDetectsFormat(t *testing.T) {
	in := setsystem.Uniform(rng.New(4), 50, 8, 0, 20)
	tpath := writeInstance(t, in, setsystem.Write)
	bpath := writeInstance(t, in, setsystem.WriteBinary)
	for _, path := range []string{tpath, bpath} {
		s, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Universe() != in.N || s.Len() != in.M() {
			t.Fatalf("%s: header %d/%d", path, s.Universe(), s.Len())
		}
		s.Reset()
		count := 0
		for {
			item, ok := s.Next()
			if !ok {
				break
			}
			want := in.Set(item.ID)
			for i := range want {
				if item.Elems[i] != want[i] {
					t.Fatalf("%s: set %d differs", path, item.ID)
				}
			}
			count++
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if count != in.M() {
			t.Fatalf("%s: %d sets", path, count)
		}
		s.Close()
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBinaryFileStreamNextAllocFree is the allocation-regression guard for
// the SCB1 data plane: once the decode buffer has warmed up (first pass),
// Next must not allocate.
func TestBinaryFileStreamNextAllocFree(t *testing.T) {
	in := setsystem.Uniform(rng.New(5), 256, 40, 16, 64)
	path := writeInstance(t, in, setsystem.WriteBinary)
	fs, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Warm-up pass grows the reusable buffer to the largest set.
	fs.Reset()
	for {
		if _, ok := fs.Next(); !ok {
			break
		}
	}
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
	fs.Reset()
	perPass := float64(in.M())
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := fs.Next(); !ok {
			fs.Reset()
		}
	})
	if allocs > 0 {
		t.Fatalf("FileStream.Next allocates %.2f objects/op in steady state on SCB1 (%v sets/pass)", allocs, perPass)
	}
}
