package stream

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamcover/internal/setsystem"
)

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
