package stream

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// FuzzOpenMatchesLoad pins the one-decoder contract between the decoded
// path and the honest stream: for any file, setsystem.Load and Open plus
// one full pass either both reject it, or both accept it and yield the same
// sets in the same order. covercli -replay and coverd solve what Load
// returns, covercli -in streams what Open returns, and their results must
// match bit for bit.
//
// Run the full fuzzer locally with:
//
//	go test -fuzz FuzzOpenMatchesLoad -fuzztime 30s ./internal/stream
//
// CI executes the seed corpus below as ordinary tests.
func FuzzOpenMatchesLoad(f *testing.F) {
	for _, in := range []*setsystem.Instance{
		setsystem.FromSets(8, [][]int{{0, 3, 7}, {}, {1, 2}}),
		setsystem.Zipf(rng.New(2), 64, 12, 1.5, 20),
	} {
		for _, encode := range []func(io.Writer, *setsystem.Instance) error{
			setsystem.Write, setsystem.WriteBinary, setsystem.WriteSCB2,
		} {
			var buf bytes.Buffer
			if err := encode(&buf, in); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	// The three inputs on which the two paths used to disagree.
	f.Add([]byte("setcover 5 2\n1 1\n0 2\n"))         // sets out of id order
	f.Add([]byte("setcover 4 2\n0 0 1 2 3\n0 0 1\n")) // duplicate id, set 1 missing
	f.Add([]byte("setcover 3000000000 1\n0 1\n"))     // n beyond the int32 limit

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.inst")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, lerr := setsystem.Load(path)
		if lerr == nil {
			defer loaded.Unmap()
		}
		n, items, serr := onePass(path)
		if (lerr == nil) != (serr == nil) {
			t.Fatalf("Load err=%v, Open+pass err=%v", lerr, serr)
		}
		if lerr != nil {
			return
		}
		if n != loaded.N || len(items) != loaded.M() {
			t.Fatalf("stream n=%d with %d sets, Load n=%d with %d", n, len(items), loaded.N, loaded.M())
		}
		for i, it := range items {
			if it.ID != i || !slices.Equal(it.Elems, loaded.Set(i)) {
				t.Fatalf("item %d is set %d %v, Load has set %d %v", i, it.ID, it.Elems, i, loaded.Set(i))
			}
		}
	})
}

// onePass opens path and drains one pass, copying every item.
func onePass(path string) (n int, items []Item, err error) {
	s, err := Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer s.Close()
	s.Reset()
	for {
		it, ok := s.Next()
		if !ok {
			break
		}
		items = append(items, Item{ID: it.ID, Elems: slices.Clone(it.Elems)})
	}
	return s.Universe(), items, s.Err()
}
