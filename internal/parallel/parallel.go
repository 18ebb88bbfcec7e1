// Package parallel is the multi-core layer of streamcover: the worker-count
// entry point to the pass driver, and a deterministic parallel argmax.
//
// The paper's õpt-guessing wrapper runs a (1+ε)-geometric grid of Algorithm 1
// instances "in parallel" over the same stream passes; the guesses are
// logically independent, so nothing forces them onto one core. Run drives a
// slice of stream.PassAlgorithm children over a stream through
// stream.Drive, the one pass driver. At one worker, or once only one child
// is still running, the pass runs inline on the caller's goroutine. Above
// that the stream is still read exactly once per pass, by the caller, and
// its items are broadcast read-only, in chunks, to a pool of goroutines that
// each own a partition of the children. Per-guess offline sub-solves
// (Algorithm 1 step 3(c)) happen inside EndPass and therefore run
// concurrently across guesses too.
//
// For a fixed root seed the outcome is bit-identical at every worker count:
// every child observes the full pass in stream arrival order on one
// goroutine, children never share mutable state (each owns an RNG split
// deterministically from the root seed at construction time), and
// Accounting — including PeakSpace, the exact per-item peak of the summed
// child footprints — is a pure function of the children and the stream.
package parallel

import (
	"context"
	"runtime"
	"sync"

	"streamcover/internal/stream"
)

// Config parameterizes Run.
type Config struct {
	// Workers is the number of goroutines a pass may use; <= 0 selects
	// runtime.GOMAXPROCS(0). A pass runs inline on the caller's goroutine
	// when Workers or the number of still-running children is 1.
	Workers int
	// MaxPasses bounds the run; Run returns stream.ErrPassLimit when the
	// children do not all finish within it.
	MaxPasses int
	// Context, when non-nil, cancels the run cooperatively (see
	// stream.Drive for when it is polled and the abort shape). nil means no
	// cancellation.
	Context context.Context
	// Trace, when non-nil, receives one stream.PassSample per clean pass.
	// nil disables all trace work, including the wall-clock reads.
	Trace stream.TraceSink
}

// Workers resolves a requested parallelism level: p if positive, else
// runtime.GOMAXPROCS(0).
func Workers(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Run drives the children over s until every child reports done, at the
// configured worker count; results and accounting do not depend on it.
func Run(s stream.Stream, children []stream.PassAlgorithm, cfg Config) (stream.Accounting, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return stream.Drive(ctx, s, children, Workers(cfg.Workers), cfg.MaxPasses, cfg.Trace)
}

// minInline is the candidate count below which ArgMax runs inline
// regardless of the worker count: goroutine startup dwarfs the work.
const minInline = 32

// maxArgMaxWorkers caps the fan-out so the scratch's per-worker result
// arrays can live inline in the pooled struct instead of per-call slices.
const maxArgMaxWorkers = 64

// argmaxScratch is the reusable per-call state of a parallel ArgMax:
// fixed-size result arrays replace the two per-call slice allocations, and
// the struct (including its WaitGroup) is recycled through a sync.Pool.
// The remaining per-call cost is one small closure allocation per spawned
// goroutine — unavoidable with per-call goroutines — bounded by the
// AllocsPerRun guard in the tests.
type argmaxScratch struct {
	wg     sync.WaitGroup
	w, n   int
	score  func(i int) int
	idxs   [maxArgMaxWorkers]int
	scores [maxArgMaxWorkers]int
}

var argmaxPool = sync.Pool{New: func() any { return new(argmaxScratch) }}

func (sc *argmaxScratch) run(wi int) {
	lo, hi := wi*sc.n/sc.w, (wi+1)*sc.n/sc.w
	sc.idxs[wi], sc.scores[wi] = argMaxRange(lo, hi, sc.score)
	sc.wg.Done()
}

// ArgMax returns the index in [0, n) maximizing score, and the maximum
// itself, evaluating candidates across w workers (w <= 1 runs inline). Ties
// break toward the lowest index — exactly the outcome of a sequential
// first-strictly-greater scan — so the result is independent of w. score
// must be safe to call concurrently for distinct i. Returns (-1, 0) when
// n <= 0.
func ArgMax(w, n int, score func(i int) int) (best, bestScore int) {
	if n <= 0 {
		return -1, 0
	}
	if w > n {
		w = n
	}
	if w > maxArgMaxWorkers {
		w = maxArgMaxWorkers
	}
	if w <= 1 || n < minInline {
		return argMaxRange(0, n, score)
	}
	sc := argmaxPool.Get().(*argmaxScratch)
	sc.w, sc.n, sc.score = w, n, score
	sc.wg.Add(w - 1)
	for wi := 1; wi < w; wi++ {
		go sc.run(wi)
	}
	// The caller's goroutine scans worker 0's range itself instead of
	// idling in Wait.
	best, bestScore = argMaxRange(0, n/w, score)
	sc.wg.Wait()
	// Workers own ascending contiguous ranges, so combining in worker order
	// with a strict > keeps the lowest index among maximal scores.
	for wi := 1; wi < w; wi++ {
		if sc.scores[wi] > bestScore {
			best, bestScore = sc.idxs[wi], sc.scores[wi]
		}
	}
	sc.score = nil
	argmaxPool.Put(sc)
	return best, bestScore
}

func argMaxRange(lo, hi int, score func(i int) int) (best, bestScore int) {
	best, bestScore = lo, score(lo)
	for i := lo + 1; i < hi; i++ {
		if s := score(i); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}
