package bitset

import (
	"testing"

	"streamcover/internal/rng"
)

// randomSorted returns a random sorted duplicate-free subset of [0, n).
func randomSorted(r *rng.RNG, n, k int) []int32 {
	elems := r.KSubset(n, k)
	out := make([]int32, len(elems))
	for i, e := range elems {
		out[i] = int32(e)
	}
	return out
}

// TestRunKernelsMatchScalar is the scalar-vs-run-kernel equivalence
// property test: on random bitsets and random sorted element lists, every
// run kernel must agree exactly with its element-at-a-time counterpart.
func TestRunKernelsMatchScalar(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		k := r.Intn(n + 1)
		elems := randomSorted(r, n, k)
		runs := AppendRuns(nil, elems)

		// Run-list structure: sorted by word, one entry per occupied word,
		// round-trips to the input elements.
		for i := 1; i < len(runs); i++ {
			if runs[i-1].Word >= runs[i].Word {
				t.Fatalf("trial %d: runs not strictly word-sorted: %v", trial, runs)
			}
		}
		if got := CountRuns(elems); got != len(runs) {
			t.Fatalf("trial %d: CountRuns=%d, AppendRuns built %d", trial, got, len(runs))
		}
		if got := RunsLen(runs); got != len(elems) {
			t.Fatalf("trial %d: RunsLen=%d want %d", trial, got, len(elems))
		}
		full := New(n)
		full.Fill()
		if got := full.AndRunsAppend(nil, runs); !equalInt32(got, elems) {
			t.Fatalf("trial %d: run list does not round-trip: got %v want %v", trial, got, elems)
		}

		set := New(n)
		set.SetAll(elems)

		// A random bitset to probe against.
		b := New(n)
		for e := 0; e < n; e++ {
			if r.Bernoulli(0.4) {
				b.Set(e)
			}
		}

		if got, want := b.AndCountRuns(runs), b.AndCount(set); got != want {
			t.Fatalf("trial %d: AndCountRuns=%d, scalar AndCount=%d", trial, got, want)
		}

		// AndRunsAppend == scalar filter of elems by membership in b.
		var wantFiltered []int32
		for _, e := range elems {
			if b.Has(int(e)) {
				wantFiltered = append(wantFiltered, e)
			}
		}
		if got := b.AndRunsAppend(nil, runs); !equalInt32(got, wantFiltered) {
			t.Fatalf("trial %d: AndRunsAppend=%v want %v", trial, got, wantFiltered)
		}

		// AndNotRuns: same final set as scalar AndNot, removed == |b| delta.
		bRuns, bScalar := b.Clone(), b.Clone()
		before := bRuns.Count()
		removed := bRuns.AndNotRuns(runs)
		bScalar.AndNot(set)
		if !bRuns.Equal(bScalar) {
			t.Fatalf("trial %d: AndNotRuns result differs from scalar AndNot", trial)
		}
		if removed != before-bRuns.Count() {
			t.Fatalf("trial %d: AndNotRuns removed=%d, true delta=%d", trial, removed, before-bRuns.Count())
		}
	}
}

func TestRunKernelsEmpty(t *testing.T) {
	if runs := AppendRuns(nil, nil); len(runs) != 0 || CountRuns(nil) != 0 {
		t.Fatalf("AppendRuns(nil) = %v, CountRuns(nil) = %d, want empty", runs, CountRuns(nil))
	}
	b := New(100)
	b.Fill()
	if b.AndCountRuns(nil) != 0 || b.AndNotRuns(nil) != 0 {
		t.Fatal("empty run list must be a no-op on every kernel")
	}
	if got := b.AndRunsAppend(nil, nil); len(got) != 0 {
		t.Fatalf("AndRunsAppend with empty runs = %v", got)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
