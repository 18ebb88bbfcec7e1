package bitset

import (
	"testing"

	"streamcover/internal/rng"
)

// forceKernel pins the Grid kernel body for the duration of a test and
// restores the ambient choice afterwards.
func forceKernel(t testing.TB, name string) {
	t.Helper()
	prev := GridKernel()
	if err := SetGridKernel(name); err != nil {
		t.Fatalf("SetGridKernel(%q): %v", name, err)
	}
	t.Cleanup(func() {
		if err := SetGridKernel(prev); err != nil {
			t.Fatalf("restoring kernel %q: %v", prev, err)
		}
	})
}

// gridShapes is the lane/capacity matrix the grid tests sweep: lane counts
// below, at, and above the 4-lane SIMD column width (padded and unpadded
// strides), and capacities exercising empty, single-word, word-aligned and
// unaligned-tail layouts.
var gridShapes = []struct{ n, lanes int }{
	{1, 1}, {63, 1}, {64, 2}, {65, 3},
	{100, 4}, {129, 5}, {257, 7}, {320, 8},
	{1000, 11}, {4113, 16}, {777, 31},
}

// TestGridLaneOpsMatchBitset mirrors a random op sequence on every grid
// lane and on per-lane reference Bitsets, then checks the grid and the
// references agree element for element.
func TestGridLaneOpsMatchBitset(t *testing.T) {
	r := rng.New(7)
	for _, shape := range gridShapes {
		g := NewGrid(shape.n, shape.lanes)
		refs := make([]*Bitset, shape.lanes)
		for l := range refs {
			refs[l] = New(shape.n)
			if r.Bernoulli(0.3) {
				g.Fill(l)
				refs[l].Fill()
			}
			for op := 0; op < 200; op++ {
				e := r.Intn(shape.n)
				if r.Bernoulli(0.5) {
					g.Set(l, e)
					refs[l].Set(e)
				} else {
					g.Clear(l, e)
					refs[l].Clear(e)
				}
			}
			if r.Bernoulli(0.1) {
				g.Reset(l)
				refs[l].Reset()
			}
		}
		for l, ref := range refs {
			if !g.LaneBitset(l).Equal(ref) {
				t.Fatalf("n=%d lanes=%d: lane %d diverged from reference", shape.n, shape.lanes, l)
			}
			if g.Count(l) != ref.Count() {
				t.Fatalf("n=%d lanes=%d: lane %d Count=%d want %d", shape.n, shape.lanes, l, g.Count(l), ref.Count())
			}
			for e := 0; e < shape.n; e++ {
				if g.Has(l, e) != ref.Has(e) {
					t.Fatalf("n=%d lanes=%d: lane %d Has(%d) diverged", shape.n, shape.lanes, l, e)
				}
			}
			var got []int
			g.Range(l, func(e int) bool { got = append(got, e); return true })
			want := ref.Elems(nil)
			if len(got) != len(want) {
				t.Fatalf("n=%d lanes=%d: lane %d Range yielded %d elems, want %d", shape.n, shape.lanes, l, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d lanes=%d: lane %d Range elem %d = %d, want %d", shape.n, shape.lanes, l, i, got[i], want[i])
				}
			}
		}
	}
}

// randomGrid fills a grid (and per-lane reference bitsets) with random
// content, including occasional full and empty lanes so the kernels see
// saturated and zero words.
func randomGrid(r *rng.RNG, n, lanes int) (*Grid, []*Bitset) {
	g := NewGrid(n, lanes)
	refs := make([]*Bitset, lanes)
	for l := range refs {
		refs[l] = New(n)
		switch {
		case r.Bernoulli(0.1):
			g.Fill(l)
			refs[l].Fill()
		case r.Bernoulli(0.1):
			// leave empty
		default:
			p := 0.1 + 0.8*r.Float64()
			for e := 0; e < n; e++ {
				if r.Bernoulli(p) {
					g.Set(l, e)
					refs[l].Set(e)
				}
			}
		}
	}
	return g, refs
}

// TestGridAndCountRunsParity is the dispatch parity property test: for
// every kernel body available on this machine, Grid.AndCountRuns must agree
// exactly with the per-lane scalar Bitset reference — across padded and
// unpadded strides, unaligned tail words, saturated/empty lanes, and run
// lists from empty to full-universe.
func TestGridAndCountRunsParity(t *testing.T) {
	for _, kernel := range GridKernels() {
		t.Run("kernel="+kernel, func(t *testing.T) {
			forceKernel(t, kernel)
			if got := GridKernel(); got != kernel {
				t.Fatalf("GridKernel()=%q after forcing %q", got, kernel)
			}
			r := rng.New(23)
			for _, shape := range gridShapes {
				g, refs := randomGrid(r, shape.n, shape.lanes)
				for trial := 0; trial < 20; trial++ {
					k := r.Intn(shape.n + 1)
					if trial == 0 {
						k = shape.n // full universe: every word occupied
					}
					runs := AppendRuns(nil, randomSorted(r, shape.n, k))
					counts := g.MakeCounts()
					// Pre-seed to verify accumulate (not overwrite) semantics.
					for i := range counts {
						counts[i] = int64(100 * i)
					}
					g.AndCountRuns(runs, counts)
					for l, ref := range refs {
						want := int64(100*l) + int64(ref.AndCountRuns(runs))
						if counts[l] != want {
							t.Fatalf("n=%d lanes=%d lane=%d: AndCountRuns=%d want %d",
								shape.n, shape.lanes, l, counts[l], want)
						}
					}
					for i := shape.lanes; i < len(counts); i++ {
						if counts[i] != int64(100*i) {
							t.Fatalf("n=%d lanes=%d: padding count %d mutated", shape.n, shape.lanes, i)
						}
					}
				}
			}
		})
	}
}

// TestGridKernelBodiesAgree runs every available kernel body on identical
// inputs and requires bit-identical counts — the direct scalar-vs-SIMD
// comparison (on machines without AVX2 it degenerates to scalar-vs-scalar).
func TestGridKernelBodiesAgree(t *testing.T) {
	kernels := GridKernels()
	r := rng.New(99)
	for _, shape := range gridShapes {
		g, _ := randomGrid(r, shape.n, shape.lanes)
		for trial := 0; trial < 10; trial++ {
			runs := AppendRuns(nil, randomSorted(r, shape.n, 1+r.Intn(shape.n)))
			results := make([][]int64, len(kernels))
			for ki, kernel := range kernels {
				forceKernel(t, kernel)
				counts := g.MakeCounts()
				g.AndCountRuns(runs, counts)
				results[ki] = counts
			}
			for ki := 1; ki < len(results); ki++ {
				for i := range results[0] {
					if results[ki][i] != results[0][i] {
						t.Fatalf("n=%d lanes=%d: kernel %q count[%d]=%d, %q says %d",
							shape.n, shape.lanes, kernels[ki], i, results[ki][i], kernels[0], results[0][i])
					}
				}
			}
		}
	}
}

// TestGridLaneRunKernelsMatchBitset checks the strided single-lane kernels
// (the one-live-guess fallbacks) against their Bitset counterparts.
func TestGridLaneRunKernelsMatchBitset(t *testing.T) {
	r := rng.New(55)
	for _, shape := range gridShapes {
		g, refs := randomGrid(r, shape.n, shape.lanes)
		for trial := 0; trial < 10; trial++ {
			runs := AppendRuns(nil, randomSorted(r, shape.n, r.Intn(shape.n+1)))
			for l, ref := range refs {
				if got, want := g.LaneAndCountRuns(l, runs), ref.AndCountRuns(runs); got != want {
					t.Fatalf("lane %d: LaneAndCountRuns=%d want %d", l, got, want)
				}
				if got, want := g.LaneAndRunsAppend(l, nil, runs), ref.AndRunsAppend(nil, runs); !equalInt32(got, want) {
					t.Fatalf("lane %d: LaneAndRunsAppend=%v want %v", l, got, want)
				}
			}
			// Mutating kernels: apply to clones of the grid state.
			mg := NewGrid(shape.n, shape.lanes)
			for l, ref := range refs {
				ref.Range(func(e int) bool { mg.Set(l, e); return true })
			}
			for l, ref := range refs {
				rb := ref.Clone()
				if got, want := mg.LaneAndNotRuns(l, runs), rb.AndNotRuns(runs); got != want {
					t.Fatalf("lane %d: LaneAndNotRuns removed %d, want %d", l, got, want)
				}
				if !mg.LaneBitset(l).Equal(rb) {
					t.Fatalf("lane %d: LaneAndNotRuns state diverged", l)
				}
			}
		}
	}
}

// TestGridLaneElemKernelsMatchBitset checks the element-at-a-time lane
// kernels (the no-run-list fallbacks) against per-element Bitset
// references, including out-of-universe elements, which count as absent.
func TestGridLaneElemKernelsMatchBitset(t *testing.T) {
	r := rng.New(56)
	for _, shape := range gridShapes {
		g, refs := randomGrid(r, shape.n, shape.lanes)
		for trial := 0; trial < 10; trial++ {
			elems := randomSorted(r, shape.n, r.Intn(shape.n+1))
			elems = append(elems, int32(shape.n), -1) // absent by contract
			for l, ref := range refs {
				wantCnt := 0
				var wantKeep []int32
				for _, e := range elems {
					if ref.Has(int(e)) {
						wantCnt++
						wantKeep = append(wantKeep, e)
					}
				}
				if got := g.LaneCountElems(l, elems); got != wantCnt {
					t.Fatalf("lane %d: LaneCountElems=%d want %d", l, got, wantCnt)
				}
				if got := g.LaneFilterElemsAppend(l, nil, elems); !equalInt32(got, wantKeep) {
					t.Fatalf("lane %d: LaneFilterElemsAppend=%v want %v", l, got, wantKeep)
				}
			}
			mg := NewGrid(shape.n, shape.lanes)
			for l, ref := range refs {
				ref.Range(func(e int) bool { mg.Set(l, e); return true })
			}
			for l, ref := range refs {
				rb := ref.Clone()
				want := 0
				for _, e := range elems {
					if rb.Has(int(e)) {
						rb.Clear(int(e))
						want++
					}
				}
				if got := mg.LaneClearElems(l, elems); got != want {
					t.Fatalf("lane %d: LaneClearElems removed %d, want %d", l, got, want)
				}
				if !mg.LaneBitset(l).Equal(rb) {
					t.Fatalf("lane %d: LaneClearElems state diverged", l)
				}
			}
		}
	}
}

// TestGridLaneRankElemsMatchesNaiveCount is the rank helper's property
// test: on random lanes of every grid shape, the rank LaneRankElems writes
// for any element of the universe — in the lane or not, in any order —
// equals a naive count of the lane's elements below it, and the lane's own
// elements in ascending order rank as 0, 1, 2, ...
func TestGridLaneRankElemsMatchesNaiveCount(t *testing.T) {
	r := rng.New(23)
	for _, shape := range gridShapes {
		g := NewGrid(shape.n, shape.lanes)
		for l := 0; l < shape.lanes; l++ {
			density := r.Float64()
			for e := 0; e < shape.n; e++ {
				if r.Bernoulli(density) {
					g.Set(l, e)
				}
			}
		}
		for l := 0; l < shape.lanes; l++ {
			probe := make([]int32, 1+r.Intn(2*shape.n))
			for i := range probe {
				probe[i] = int32(r.Intn(shape.n))
			}
			// below[e] counts the lane's elements under e, one Has at a time.
			below := make([]int32, shape.n+1)
			for x := 0; x < shape.n; x++ {
				below[x+1] = below[x]
				if g.Has(l, x) {
					below[x+1]++
				}
			}
			got := append([]int32(nil), probe...)
			g.LaneRankElems(l, got)
			for i, e := range probe {
				if got[i] != below[e] {
					t.Fatalf("n=%d lanes=%d lane %d: rank of %d = %d, naive count %d",
						shape.n, shape.lanes, l, e, got[i], below[e])
				}
			}

			var own []int32
			g.Range(l, func(e int) bool { own = append(own, int32(e)); return true })
			g.LaneRankElems(l, own)
			for i, rank := range own {
				if rank != int32(i) {
					t.Fatalf("n=%d lanes=%d lane %d: element %d of the lane ranks %d", shape.n, shape.lanes, l, i, rank)
				}
			}
		}
	}
}

// TestSetGridKernel checks the knob's error cases and that the reported
// kernel tracks the forced one.
func TestSetGridKernel(t *testing.T) {
	forceKernel(t, KernelScalar) // also registers restore of the ambient body
	if err := SetGridKernel("no-such-kernel"); err == nil {
		t.Fatal("SetGridKernel accepted an unknown kernel name")
	}
	if got := GridKernel(); got != KernelScalar {
		t.Fatalf("GridKernel()=%q after failed SetGridKernel, want scalar", got)
	}
	for _, k := range GridKernels() {
		if err := SetGridKernel(k); err != nil {
			t.Fatalf("SetGridKernel(%q): %v", k, err)
		}
		if got := GridKernel(); got != k {
			t.Fatalf("GridKernel()=%q want %q", got, k)
		}
	}
}

// BenchmarkGridAndCountRuns measures the grid sweep against the per-guess
// Bitset loop it replaces, for each kernel body: 16 lanes of a 16384-element
// universe probed by 512-element sets.
func BenchmarkGridAndCountRuns(b *testing.B) {
	const n, lanes, setSize, nSets = 16384, 16, 512, 64
	r := rng.New(1)
	g, refs := randomGrid(r, n, lanes)
	runLists := make([][]Run, nSets)
	for i := range runLists {
		runLists[i] = AppendRuns(nil, randomSorted(r, n, setSize))
	}
	counts := g.MakeCounts()
	for _, kernel := range GridKernels() {
		b.Run("grid16/kernel="+kernel, func(b *testing.B) {
			forceKernel(b, kernel)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for ci := range counts {
					counts[ci] = 0
				}
				g.AndCountRuns(runLists[i%nSets], counts)
			}
		})
	}
	b.Run("perguess16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runs := runLists[i%nSets]
			for l, ref := range refs {
				counts[l] = int64(ref.AndCountRuns(runs))
			}
		}
	})
}
