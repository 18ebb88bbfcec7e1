package stream

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func writeSCB2(t *testing.T, in *setsystem.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.scb2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := setsystem.WriteSCB2(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedStreamMatchesInstanceStream drives two passes over the mapped
// stream and checks every item against the in-memory stream of the same
// instance.
func TestMappedStreamMatchesInstanceStream(t *testing.T) {
	inst := setsystem.Zipf(rng.New(6), 256, 48, 1.5, 64)
	ms, err := OpenMapped(writeSCB2(t, inst))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if ms.Universe() != inst.N || ms.Len() != inst.M() {
		t.Fatalf("mapped stream metadata n=%d m=%d, want n=%d m=%d",
			ms.Universe(), ms.Len(), inst.N, inst.M())
	}
	ref := FromInstance(inst, Adversarial, nil)
	for pass := 0; pass < 2; pass++ {
		ms.Reset()
		ref.Reset()
		for {
			got, ok1 := ms.Next()
			want, ok2 := ref.Next()
			if ok1 != ok2 {
				t.Fatalf("pass %d: stream lengths diverge", pass)
			}
			if !ok1 {
				break
			}
			if got.ID != want.ID || !reflect.DeepEqual(got.Elems, want.Elems) {
				t.Fatalf("pass %d: item %d differs: %v vs %v", pass, got.ID, got.Elems, want.Elems)
			}
		}
	}
	if err := PassErr(ms); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDispatch pins the codec sniff: text and SCB1 → FileStream, SCB2
// → MappedFileStream.
func TestOpenDispatch(t *testing.T) {
	inst := setsystem.FromSets(6, [][]int{{0, 1}, {2, 3}, {4, 5}})
	dir := t.TempDir()

	write := func(name string, encode func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := encode(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	tpath := write("i.sc", func(f *os.File) error { return setsystem.Write(f, inst) })
	bpath := write("i.scb", func(f *os.File) error { return setsystem.WriteBinary(f, inst) })
	mpath := write("i.scb2", func(f *os.File) error { return setsystem.WriteSCB2(f, inst) })

	for _, tc := range []struct {
		path string
		want any
	}{
		{tpath, &FileStream{}},
		{bpath, &FileStream{}},
		{mpath, &MappedFileStream{}},
	} {
		s, err := Open(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(s) != reflect.TypeOf(tc.want) {
			t.Fatalf("Open(%s) = %T, want %T", tc.path, s, tc.want)
		}
		if s.Universe() != inst.N || s.Len() != inst.M() {
			t.Fatalf("Open(%s): metadata n=%d m=%d", tc.path, s.Universe(), s.Len())
		}
		s.Close()
	}
}

// TestOpenUnrecognizedShortFile pins the bugfix: empty or magic-less short
// files produce a clear "unrecognized instance file" error, not a raw EOF.
func TestOpenUnrecognizedShortFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.sc": "",
		"tiny.sc":  "ab",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Fatalf("Open(%s) accepted a %d-byte file", name, len(content))
		}
		if !strings.Contains(err.Error(), "unrecognized instance file") {
			t.Fatalf("Open(%s) error %q does not identify the file as unrecognized", name, err)
		}
		if strings.Contains(err.Error(), "EOF") {
			t.Fatalf("Open(%s) surfaced a raw EOF: %q", name, err)
		}
	}
}
