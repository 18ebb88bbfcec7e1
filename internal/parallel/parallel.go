// Package parallel is the multi-core layer of streamcover: the worker-count
// entry point to the pass driver.
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
