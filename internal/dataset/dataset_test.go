package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"streamcover/internal/setsystem"
)

func importFile(t *testing.T, name string, f Format) (*setsystem.Instance, Meta) {
	t.Helper()
	file, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	in, meta, err := Import(file, f)
	if err != nil {
		t.Fatal(err)
	}
	return in, meta
}

func sets(in *setsystem.Instance) [][]int32 {
	out := make([][]int32, in.M())
	for i := range out {
		out[i] = in.Set(i)
	}
	return out
}

// TestImportSNAP checks the vertex-cover reduction on the checked-in
// fixture: edges in file order are the universe, node i's set is its
// incident edge ids.
func TestImportSNAP(t *testing.T) {
	in, meta := importFile(t, "tiny.snap", SNAP)
	// Edges: 0=(0,1) 1=(0,2) 2=(1,2) 3=(3,1) 4=(2,3) 5=(4,0).
	want := [][]int32{
		{0, 1, 5}, // node 0
		{0, 2, 3}, // node 1
		{1, 2, 4}, // node 2
		{3, 4},    // node 3
		{5},       // node 4
	}
	if !reflect.DeepEqual(sets(in), want) {
		t.Fatalf("snap sets = %v, want %v", sets(in), want)
	}
	if meta.Nodes != 5 || meta.Edges != 6 || meta.N != 6 || meta.M != 5 {
		t.Fatalf("snap meta = %+v", meta)
	}
	if !in.Coverable() {
		t.Fatal("vertex-cover instance must always be coverable")
	}
}

// TestImportFIMI checks the transaction reduction: items remap to dense
// element ids in sorted-item order, transactions keep file order.
func TestImportFIMI(t *testing.T) {
	in, meta := importFile(t, "tiny.fimi", FIMI)
	// Items 1..6 remap to 0..5.
	want := [][]int32{
		{0, 2, 3},    // 3 1 4
		{0, 4},       // 1 5
		{0, 1, 2, 4}, // 2 3 5 1
		{3},          // 4
		{1, 5},       // 2 6
	}
	if !reflect.DeepEqual(sets(in), want) {
		t.Fatalf("fimi sets = %v, want %v", sets(in), want)
	}
	if meta.Transactions != 5 || meta.Items != 6 || meta.N != 6 || meta.M != 5 {
		t.Fatalf("fimi meta = %+v", meta)
	}
	if !in.Coverable() {
		t.Fatal("every item appears in a transaction; instance must be coverable")
	}
}

// TestImportDIMACS checks the 1-based DIMACS reduction, including the
// declared-count cross-check.
func TestImportDIMACS(t *testing.T) {
	in, meta := importFile(t, "tiny.dimacs", DIMACS)
	// Edges in file order: 0=(1,2) 1=(1,3) 2=(2,3) 3=(2,4) 4=(3,5) 5=(4,5) 6=(1,5).
	want := [][]int32{
		{0, 1, 6}, // node 1
		{0, 2, 3}, // node 2
		{1, 2, 4}, // node 3
		{3, 5},    // node 4
		{4, 5, 6}, // node 5
	}
	if !reflect.DeepEqual(sets(in), want) {
		t.Fatalf("dimacs sets = %v, want %v", sets(in), want)
	}
	if meta.Nodes != 5 || meta.Edges != 7 || meta.N != 7 || meta.M != 5 {
		t.Fatalf("dimacs meta = %+v", meta)
	}

	// Isolated nodes get no set, as in SNAP; Meta.Nodes keeps the
	// declared count.
	in, meta, err := Import(strings.NewReader("p edge 6 2\ne 5 2\ne 6 5\n"), DIMACS)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{0}, {0, 1}, {1}}; !reflect.DeepEqual(sets(in), want) { // nodes 2, 5, 6
		t.Fatalf("dimacs sets with isolated nodes = %v, want %v", sets(in), want)
	}
	if meta.Nodes != 6 || meta.Edges != 2 || meta.N != 2 || meta.M != 3 {
		t.Fatalf("dimacs meta with isolated nodes = %+v", meta)
	}
}

// TestImportDeterminism pins that importing the same bytes twice yields
// content-hash-identical instances — the property coverd's registry dedup
// relies on.
func TestImportDeterminism(t *testing.T) {
	for name, f := range map[string]Format{
		"tiny.snap": SNAP, "tiny.fimi": FIMI, "tiny.dimacs": DIMACS,
	} {
		a, _ := importFile(t, name, f)
		b, _ := importFile(t, name, f)
		if setsystem.Hash(a) != setsystem.Hash(b) {
			t.Fatalf("%s: two imports hash differently", name)
		}
	}
}

func TestImportErrors(t *testing.T) {
	cases := map[string]struct {
		f     Format
		input string
		want  string
	}{
		"snap-one-field":     {SNAP, "0 1\n7\n", "want 'u v'"},
		"snap-negative":      {SNAP, "0 -3\n", "bad node pair"},
		"fimi-bad-item":      {FIMI, "1 2\nx 3\n", "bad item"},
		"dimacs-no-problem":  {DIMACS, "e 1 2\n", "edge before problem line"},
		"dimacs-count-lie":   {DIMACS, "p edge 3 2\ne 1 2\n", "declares 2 edges, file has 1"},
		"dimacs-out-of-rng":  {DIMACS, "p edge 2 1\ne 1 9\n", "out of [1,2]"},
		"dimacs-second-prob": {DIMACS, "p edge 2 0\np edge 2 0\n", "second problem line"},
		"dimacs-unknown":     {DIMACS, "p edge 1 0\nz 1\n", "unknown line type"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := Import(strings.NewReader(tc.input), tc.f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseFormat pins the CLI vocabulary.
func TestParseFormat(t *testing.T) {
	for _, s := range Formats {
		f, err := ParseFormat(s)
		if err != nil || f.String() != s {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, f, err)
		}
	}
	if _, err := ParseFormat("csv"); err == nil {
		t.Fatal("ParseFormat accepted an unknown format")
	}
}

// FuzzImport feeds arbitrary bytes to every importer. Each must return a
// valid instance or an error, never panic, and allocate at most a constant
// times the input it was given: a header's claim (DIMACS's node count) or
// a large id (SNAP nodes, FIMI items) must not size anything. The fixed
// term is the line scanner's 1 MiB buffer.
//
//	go test -fuzz FuzzImport -fuzztime 30s ./internal/dataset
func FuzzImport(f *testing.F) {
	for _, format := range []Format{SNAP, FIMI, DIMACS} {
		data, err := os.ReadFile(filepath.Join("testdata", "tiny."+format.String()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(format), data)
	}
	f.Add(uint8(DIMACS), []byte("p edge 10000000 0\n"))                   // 18 bytes claiming 10^7 nodes
	f.Add(uint8(DIMACS), []byte("p edge 1000000000 1\ne 1 1000000000\n")) // the two extreme nodes
	f.Add(uint8(SNAP), []byte("0 9223372036854775807\n"))                 // the largest node id
	f.Add(uint8(FIMI), []byte("9223372036854775807 0\n"))                 // the largest item id

	f.Fuzz(func(t *testing.T, format uint8, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in, _, err := Import(bytes.NewReader(data), Format(format%3))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256*uint64(len(data))+2<<20 {
			t.Fatalf("Import(%v) allocated %d bytes on a %d-byte input", Format(format%3), alloc, len(data))
		}
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("Import returned an invalid instance: %v", verr)
		}
	})
}
