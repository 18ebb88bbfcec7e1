package stream

import (
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func writeTempBinaryInstance(t *testing.T, in *setsystem.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.scb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := setsystem.WriteBinary(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBinaryFileStreamMatchesInstanceStream(t *testing.T) {
	in := setsystem.Uniform(rng.New(1), 100, 25, 0, 40)
	path := writeTempBinaryInstance(t, in)
	fs, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Universe() != in.N || fs.Len() != in.M() {
		t.Fatalf("header: %d/%d", fs.Universe(), fs.Len())
	}
	// Three passes: contents must match the instance exactly every time
	// (Reset seeks back to the payload).
	for pass := 0; pass < 3; pass++ {
		fs.Reset()
		count := 0
		for {
			item, ok := fs.Next()
			if !ok {
				break
			}
			want := in.Set(item.ID)
			if len(item.Elems) != len(want) {
				t.Fatalf("pass %d set %d: %v != %v", pass, item.ID, item.Elems, want)
			}
			for i := range want {
				if item.Elems[i] != want[i] {
					t.Fatalf("pass %d set %d mismatch", pass, item.ID)
				}
			}
			count++
		}
		if err := fs.Err(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if count != in.M() {
			t.Fatalf("pass %d: %d sets", pass, count)
		}
	}
}

func TestBinaryFileStreamDrivesAlgorithm(t *testing.T) {
	in := setsystem.Uniform(rng.New(2), 64, 12, 4, 30)
	path := writeTempBinaryInstance(t, in)
	fs, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	alg := &countingAlg{passesWanted: 3}
	acc, err := Run(fs, alg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Passes != 3 || acc.Items != 36 {
		t.Fatalf("acc = %+v", acc)
	}
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
}

func TestBinaryFileStreamTruncatedPayload(t *testing.T) {
	in := setsystem.Uniform(rng.New(3), 64, 10, 8, 30)
	path := writeTempBinaryInstance(t, in)
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
	tpath := writeTempInstance(t, in)
	bpath := writeTempBinaryInstance(t, in)
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
	path := writeTempBinaryInstance(t, in)
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
