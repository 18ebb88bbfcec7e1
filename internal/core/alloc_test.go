package core

import (
	"testing"

	"streamcover/internal/bitset"
	"streamcover/internal/parallel"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// Allocation-regression guards for the per-item Observe hot path: every
// pass of Algorithm 1 calls Observe m times, so a single allocation per
// item multiplies into millions on large streams. The prune and subtract
// phases must be allocation-free outright; the store phase must be
// allocation-free in steady state (its flat projection arena grows
// amortized and keeps capacity across iterations).

func TestObservePruneAllocFree(t *testing.T) {
	const n = 1000
	a := NewRun(n, 64, 1, Config{Alpha: 2, Epsilon: 0.5}, rng.New(1))
	a.BeginPass(0) // prune phase
	elems := []int32{1, 5, 9, 400, 999}
	item := stream.Item{ID: 7, Elems: elems}
	// Threshold n/(ε·õpt) = 2000 > |elems|: the set is counted, not taken,
	// which is the overwhelmingly common prune-pass outcome.
	allocs := testing.AllocsPerRun(500, func() { a.Observe(item) })
	if allocs > 0 {
		t.Fatalf("prune-phase Observe allocates %.2f objects/item", allocs)
	}
}

func TestObserveSubtractAllocFree(t *testing.T) {
	const n = 1000
	a := NewRun(n, 64, 1, Config{Alpha: 2, Epsilon: 0.5}, rng.New(1))
	a.BeginPass(0)
	a.g.phase = phaseSubtract
	a.chosen[7] = true
	item := stream.Item{ID: 7, Elems: []int32{1, 5, 9, 400, 999}}
	other := stream.Item{ID: 8, Elems: []int32{2, 6}}
	allocs := testing.AllocsPerRun(500, func() {
		a.Observe(item)  // chosen: clears uncovered bits
		a.Observe(other) // not chosen: skipped
	})
	if allocs > 0 {
		t.Fatalf("subtract-phase Observe allocates %.2f objects/item", allocs)
	}
}

// TestObserveAllocFreeWithSharedRuns covers the producer-amortized path:
// when the driver prefilled item.Runs (more than one running child),
// Observe must not even build runs — every phase is allocation-free from
// the first item.
func TestObserveAllocFreeWithSharedRuns(t *testing.T) {
	const n = 1000
	a := NewRun(n, 64, 1, Config{Alpha: 2, Epsilon: 0.5}, rng.New(1))
	a.BeginPass(0) // prune phase
	elems := []int32{1, 5, 9, 400, 999}
	item := stream.Item{ID: 7, Elems: elems, Runs: bitset.AppendRuns(nil, elems)}
	allocs := testing.AllocsPerRun(500, func() { a.Observe(item) })
	if allocs > 0 {
		t.Fatalf("prune-phase Observe with shared runs allocates %.2f objects/item", allocs)
	}
	a.g.phase = phaseSubtract
	a.chosen[7] = true
	allocs = testing.AllocsPerRun(500, func() { a.Observe(item) })
	if allocs > 0 {
		t.Fatalf("subtract-phase Observe with shared runs allocates %.2f objects/item", allocs)
	}
}

// nullPassAlg is a no-op PassAlgorithm that needs a fixed number of passes.
// It contributes zero allocations of its own, so driving it through
// parallel.Run meters the driver's per-pass cost in isolation.
type nullPassAlg struct {
	need int
	pass int
}

func (a *nullPassAlg) BeginPass(pass int)  { a.pass = pass }
func (a *nullPassAlg) Observe(stream.Item) {}
func (a *nullPassAlg) EndPass() bool       { return a.pass+1 >= a.need }
func (a *nullPassAlg) Space() int          { return 0 }

// runDriverAllocs measures whole-Run allocations with four null children
// needing `need` passes each. Setup cost (pool, accounting slices, worker
// spawns) is identical for any need, so differencing two pass counts
// isolates the marginal per-pass cost.
func runDriverAllocs(s stream.Stream, need int) float64 {
	children := make([]stream.PassAlgorithm, 4)
	for i := range children {
		children[i] = &nullPassAlg{need: need}
	}
	cfg := parallel.Config{Workers: 4, MaxPasses: need + 1}
	return testing.AllocsPerRun(10, func() {
		if _, err := parallel.Run(s, children, cfg); err != nil {
			panic(err)
		}
	})
}

// TestParallelRunSteadyStatePassAllocFree pins the chunk-recycling
// contract: after the first pass warms the free list (and the chunk-owned
// run arenas), every further pass of parallel.Run must broadcast the whole
// stream without allocating. A multi-chunk stable stream with several
// children exercises broadcast refcounting and shared run building.
func TestParallelRunSteadyStatePassAllocFree(t *testing.T) {
	sets := make([][]int, 300) // ~5 chunks per pass at the default chunk size
	for i := range sets {
		sets[i] = []int{i % 64, 64 + (i*7)%192, 256 + (i*13)%256}
	}
	s := stream.FromInstance(setsystem.FromSets(512, sets), stream.Adversarial, nil)
	base := runDriverAllocs(s, 1)
	long := runDriverAllocs(s, 17)
	if perPass := (long - base) / 16; perPass >= 1 {
		t.Fatalf("parallel.Run allocates %.2f objects per steady-state pass (1-pass run: %.1f, 17-pass run: %.1f)",
			perPass, base, long)
	}
}

func TestObserveStoreSteadyStateAllocFree(t *testing.T) {
	const n = 1000
	a := NewRun(n, 64, 1, Config{Alpha: 2, Epsilon: 0.5}, rng.New(1))
	a.g.phase = phaseStore
	a.g.sole = a.lane // the one-live-lane fallback, as a real pass would set
	a.g.usmpl = bitset.NewGrid(n, 1)
	for _, e := range []int{1, 9, 400} {
		a.g.usmpl.Set(a.lane, e)
		a.usmplCnt++
	}
	a.projOffs = append(a.projOffs, 0)
	item := stream.Item{ID: 7, Elems: []int32{1, 5, 9, 400, 999}}
	a.Observe(item) // warm-up grows the arena to one item's projection
	allocs := testing.AllocsPerRun(500, func() {
		// Rewind to the warmed pass start, as EndPass/beginStorePass do,
		// then observe: appends land in existing capacity.
		a.projIDs = a.projIDs[:0]
		a.projOffs = a.projOffs[:1]
		a.projElems = a.projElems[:0]
		a.Observe(item)
	})
	if allocs > 0 {
		t.Fatalf("store-phase Observe allocates %.2f objects/item in steady state", allocs)
	}
}
