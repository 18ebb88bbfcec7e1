package setsystem

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"streamcover/internal/rng"
)

// equalInstances reports whether two instances have identical universes and
// identical sets (by arena comparison).
func equalInstances(a, b *Instance) bool {
	if a.N != b.N || a.M() != b.M() {
		return false
	}
	for i := 0; i < a.M(); i++ {
		sa, sb := a.Set(i), b.Set(i)
		if len(sa) != len(sb) {
			return false
		}
		for j := range sa {
			if sa[j] != sb[j] {
				return false
			}
		}
	}
	return true
}

func TestValidate(t *testing.T) {
	good := FromSets(5, [][]int{{0, 1}, {2, 4}, {}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	cases := []*Instance{
		FromSets(5, [][]int{{0, 5}}), // out of range
		FromSets(5, [][]int{{-1}}),   // negative
		FromSets(5, [][]int{{2, 1}}), // unsorted
		FromSets(5, [][]int{{1, 1}}), // duplicate
		FromSets(-1, nil),            // bad n
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: invalid instance accepted", i)
		}
	}
}

func TestEmptyInstanceForms(t *testing.T) {
	// The zero value and the N-only literal are valid empty instances.
	for _, in := range []*Instance{{}, {N: 7}, FromSets(7, nil)} {
		if in.M() != 0 || in.TotalElems() != 0 {
			t.Fatalf("empty instance reports m=%d total=%d", in.M(), in.TotalElems())
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("empty instance invalid: %v", err)
		}
	}
}

func TestSetViews(t *testing.T) {
	in := FromSets(6, [][]int{{0, 1, 2}, {}, {3, 5}})
	if in.SetLen(0) != 3 || in.SetLen(1) != 0 || in.SetLen(2) != 2 {
		t.Fatalf("SetLen mismatch")
	}
	if in.TotalElems() != 5 {
		t.Fatalf("TotalElems = %d", in.TotalElems())
	}
	s2 := in.Set(2)
	if len(s2) != 2 || s2[0] != 3 || s2[1] != 5 {
		t.Fatalf("Set(2) = %v", s2)
	}
	// Views have clipped capacity: an append must not bleed into the arena.
	s0 := in.Set(0)
	_ = append(s0, 99)
	if got := in.Set(1); len(got) != 0 {
		t.Fatalf("append through view corrupted the arena: set 1 = %v", got)
	}
	if s2[0] != 3 {
		t.Fatalf("append through view overwrote a neighbor: %v", s2)
	}
}

func TestCoverageAndIsCover(t *testing.T) {
	in := FromSets(6, [][]int{{0, 1, 2}, {2, 3}, {4, 5}, {0, 5}})
	if got := in.CoverageOf([]int{0, 1}); got != 4 {
		t.Fatalf("CoverageOf = %d, want 4", got)
	}
	if in.IsCover([]int{0, 1}) {
		t.Fatal("partial cover reported as full")
	}
	if !in.IsCover([]int{0, 1, 2}) {
		t.Fatal("full cover not detected")
	}
	if !in.Coverable() {
		t.Fatal("Coverable false for coverable instance")
	}
	bad := FromSets(3, [][]int{{0}, {1}})
	if bad.Coverable() {
		t.Fatal("Coverable true for uncoverable instance")
	}
}

func TestStats(t *testing.T) {
	in := FromSets(4, [][]int{{0, 1}, {1, 2, 3}, {}})
	st := ComputeStats(in)
	if st.N != 4 || st.M != 3 || st.MinSize != 0 || st.MaxSize != 3 || st.TotalSize != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ElementsCovered != 4 || st.MaxElementFrequency != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSortSets(t *testing.T) {
	in := FromSets(10, [][]int{{5, 3, 3, 1}, {9, 9}, {7}})
	in.SortSets()
	if err := in.Validate(); err != nil {
		t.Fatalf("after SortSets: %v", err)
	}
	if in.SetLen(0) != 3 || in.SetLen(1) != 1 || in.SetLen(2) != 1 {
		t.Fatalf("dedup failed: lens %d %d %d", in.SetLen(0), in.SetLen(1), in.SetLen(2))
	}
	if s := in.Set(0); s[0] != 1 || s[1] != 3 || s[2] != 5 {
		t.Fatalf("set 0 = %v", s)
	}
	// The arena was compacted: later sets survived the shift intact.
	if s := in.Set(2); s[0] != 7 {
		t.Fatalf("set 2 = %v after compaction", s)
	}
	if in.TotalElems() != 5 {
		t.Fatalf("arena not compacted: total = %d", in.TotalElems())
	}
}

func TestClone(t *testing.T) {
	in := FromSets(5, [][]int{{0, 2}, {1}})
	cp := in.Clone()
	if !equalInstances(in, cp) {
		t.Fatal("clone differs")
	}
	// Mutating the clone's arena must not touch the original.
	cp.Set(0)[0] = 4
	if in.Set(0)[0] != 0 {
		t.Fatal("clone shares arena storage with original")
	}
}

func TestBuilderIncremental(t *testing.T) {
	b := NewBuilder(9)
	b.AddSet([]int{1, 4})
	b.Append(0)
	b.Append(8)
	if v := b.EndSet(); len(v) != 2 || v[0] != 0 || v[1] != 8 {
		t.Fatalf("EndSet view = %v", v)
	}
	b.AddSet32([]int32{3})
	if b.Len() != 3 {
		t.Fatalf("builder Len = %d", b.Len())
	}
	in := b.Build()
	want := FromSets(9, [][]int{{1, 4}, {0, 8}, {3}})
	if !equalInstances(in, want) {
		t.Fatal("builder output differs from FromSets")
	}
}

func TestUniformGenerator(t *testing.T) {
	r := rng.New(1)
	in := Uniform(r, 100, 50, 5, 20)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.M() != 50 {
		t.Fatalf("M = %d", in.M())
	}
	for i := 0; i < in.M(); i++ {
		if l := in.SetLen(i); l < 5 || l > 20 {
			t.Fatalf("set %d size %d outside [5,20]", i, l)
		}
	}
}

func TestPlantedCover(t *testing.T) {
	r := rng.New(2)
	in, planted := PlantedCover(r, 200, 40, 4, 0.8)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(planted) != 4 {
		t.Fatalf("planted = %v", planted)
	}
	if !in.IsCover(planted) {
		t.Fatal("planted sets do not cover the universe")
	}
	// Planted blocks partition the universe: total size = n.
	total := 0
	for _, i := range planted {
		total += in.SetLen(i)
	}
	if total != 200 {
		t.Fatalf("planted blocks total %d elements, want 200 (partition)", total)
	}
}

func TestZipfGenerator(t *testing.T) {
	r := rng.New(3)
	in := Zipf(r, 500, 100, 1.5, 50)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.M() != 100 {
		t.Fatalf("M = %d", in.M())
	}
	for i := 0; i < in.M(); i++ {
		if l := in.SetLen(i); l < 1 || l > 50 {
			t.Fatalf("zipf set size %d", l)
		}
	}
}

func TestClusteredGenerator(t *testing.T) {
	r := rng.New(4)
	in := Clustered(r, 400, 80, 8, 30, 0.1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Most sets should be concentrated: ≥70% of elements in one cluster.
	concentrated := 0
	for i := 0; i < in.M(); i++ {
		s := in.Set(i)
		counts := make([]int, 8)
		for _, e := range s {
			counts[e/50]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if float64(max) >= 0.7*float64(len(s)) {
			concentrated++
		}
	}
	if concentrated < 60 {
		t.Fatalf("only %d/80 sets concentrated in a cluster", concentrated)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := rng.New(5)
	in := Uniform(r, 64, 20, 0, 30)
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInstances(got, in) {
		t.Fatal("text round trip differs")
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%64 + 1
		m := int(mRaw) % 20
		in := Uniform(rng.New(seed), n, m, 0, n)
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return equalInstances(got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus 1 2",
		"setcover 5\n",
		"setcover 5 1\n3 0 1\n",    // bad id
		"setcover 5 2\n0 1\n0 2\n", // duplicate id
		"setcover 5 2\n0 1\n",      // missing set
		"setcover 5 1\n0 1 x\n",    // bad element
		"setcover 5 1\n0 9\n",      // element out of range
		"setcover 5 1\n0 -2\n",     // negative element
		// int32-overflow element: must be an error, never an arena panic.
		"setcover 10 1\n0 4000000000\n",
		"setcover 5 2\n1 1\n0 2\n",     // sets out of id order
		"setcover 3000000000 1\n0 1\n", // n beyond the CSR layout's int32 limit
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# header comment\nsetcover 3 1\n\n# set\n0 0 1 2\n"
	in, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("comment case rejected: %v", err)
	}
	if in.N != 3 || in.M() != 1 {
		t.Fatalf("comment case parsed wrong: %+v", in)
	}
}

// TestReadAutoBoundsTextHeaderClaim pins the text decoder's reservation to
// the input: a 19-byte header claiming 5·10^7 sets must fail on the sets it
// lacks without first sizing anything by the claim, whether or not the
// reader can tell its length (an upload body cannot).
func TestReadAutoBoundsTextHeaderClaim(t *testing.T) {
	const header = "setcover 1 50000000"
	for name, r := range map[string]io.Reader{
		"known length":   strings.NewReader(header),
		"unknown length": io.MultiReader(strings.NewReader(header)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadAuto(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a header with no sets was accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
			t.Fatalf("%s: ReadAuto allocated %d MB on a %d-byte header", name, got>>20, len(header))
		}
	}
}
