package stream

import (
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func writeTempInstance(t *testing.T, in *setsystem.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.sc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := setsystem.Write(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileStreamMatchesInstanceStream(t *testing.T) {
	in := setsystem.Uniform(rng.New(1), 100, 25, 0, 40)
	path := writeTempInstance(t, in)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Universe() != in.N || fs.Len() != in.M() {
		t.Fatalf("header: %d/%d", fs.Universe(), fs.Len())
	}
	// Two passes: contents must match the instance exactly both times.
	for pass := 0; pass < 2; pass++ {
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

func TestFileStreamDrivesAlgorithm(t *testing.T) {
	in := setsystem.Uniform(rng.New(2), 64, 12, 4, 30)
	path := writeTempInstance(t, in)
	fs, err := OpenFile(path)
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
