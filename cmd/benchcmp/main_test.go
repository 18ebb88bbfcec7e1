package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFixture writes a minimal go test -json event stream containing the
// given benchmark result lines, one output event per fragment (benchmark
// names and numbers can arrive in separate events — load must reassemble).
func writeFixture(t *testing.T, name string, fragments []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, frag := range fragments {
		if err := enc.Encode(event{Action: "output", Output: frag}); err != nil {
			t.Fatal(err)
		}
	}
	// Interleave a non-output event, which load must ignore.
	if err := enc.Encode(event{Action: "pass"}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffOnFixturePair(t *testing.T) {
	oldPath := writeFixture(t, "old.json", []string{
		"BenchmarkSolve-8   \t     100\t  2000.0 ns/op\t  30390553 B/op\t   53031 allocs/op\n",
		"BenchmarkCodec", // name split across events...
		"-8   \t     100\t  500.0 ns/op\t 456.70 MB/s\t  4096 B/op\t  12 allocs/op\n", // ...from its numbers
		"BenchmarkRemovedOnly-8   \t      10\t  9999.0 ns/op\n",                       // no -benchmem figures
	})
	newPath := writeFixture(t, "new.json", []string{
		"BenchmarkSolve-16   \t     100\t  1000.0 ns/op\t  12502520 B/op\t    1074 allocs/op\n", // different GOMAXPROCS suffix folds away
		"BenchmarkCodec-8   \t     100\t  250.0 ns/op\t 913.40 MB/s\t  4096 B/op\t  12 allocs/op\n",
		"BenchmarkBrandNew-8   \t     100\t  42.0 ns/op\t       0 B/op\t       0 allocs/op\n",
	})

	old, err := load(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	now, err := load(newPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := diff(old, now)
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows %v, want 4", len(rows), rows)
	}
	// Rows are sorted by name.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Name >= rows[i].Name {
			t.Fatalf("rows unsorted: %v", rows)
		}
	}
	if r := byName["BenchmarkSolve"]; r.Status != "" ||
		r.Old != (result{Ns: 2000, Bytes: 30390553, Allocs: 53031, Mem: true}) ||
		r.New != (result{Ns: 1000, Bytes: 12502520, Allocs: 1074, Mem: true}) {
		t.Fatalf("BenchmarkSolve row %+v", r)
	}
	// An MB/s figure between ns/op and the -benchmem figures is skipped.
	if r := byName["BenchmarkCodec"]; r.Status != "" ||
		r.Old != (result{Ns: 500, Bytes: 4096, Allocs: 12, Mem: true}) ||
		r.New != (result{Ns: 250, Bytes: 4096, Allocs: 12, Mem: true}) {
		t.Fatalf("BenchmarkCodec row %+v", r)
	}
	// A benchmark only in the old recording is reported as removed, not
	// silently dropped; a line without -benchmem figures has none.
	if r := byName["BenchmarkRemovedOnly"]; r.Status != "removed" || r.Old != (result{Ns: 9999}) {
		t.Fatalf("BenchmarkRemovedOnly row %+v", r)
	}
	// A benchmark only in the new recording is reported as new; zero
	// allocs/op is a figure, not a missing one.
	if r := byName["BenchmarkBrandNew"]; r.Status != "new" || r.New != (result{Ns: 42, Mem: true}) {
		t.Fatalf("BenchmarkBrandNew row %+v", r)
	}
}

func TestRenderMarksOneSidedRows(t *testing.T) {
	var sb strings.Builder
	render(&sb, []row{
		{Name: "BenchmarkBoth", Old: result{Ns: 100, Allocs: 53031, Mem: true}, New: result{Ns: 50, Allocs: 1074, Mem: true}},
		{Name: "BenchmarkRemoved", Old: result{Ns: 10}, Status: "removed"},
		{Name: "BenchmarkNew", New: result{Ns: 7, Mem: true}, Status: "new"},
	})
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if f := strings.Fields(lines[1]); len(f) != 6 || f[3] != "2.00x" || f[4] != "53031" || f[5] != "1074" {
		t.Fatalf("row %q: want the 2.00x ratio, then old and new allocs/op", lines[1])
	}
	if !strings.Contains(lines[2], "removed") || strings.Contains(lines[2], "gone") {
		t.Fatalf("removed row %q", lines[2])
	}
	if f := strings.Fields(lines[3]); len(f) != 6 || f[3] != "new" || f[4] != "-" || f[5] != "0" {
		t.Fatalf("new row %q", lines[3])
	}
}

func TestLoadRejectsNonJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("benchmark text, not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("load accepted a non-JSON file")
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("load accepted a missing file")
	}
}
