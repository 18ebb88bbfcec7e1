// Package parallel is the multi-core scheduling layer of streamcover.
//
// The paper's õpt-guessing wrapper runs a (1+ε)-geometric grid of Algorithm 1
// instances "in parallel" over the same stream passes; the guesses are
// logically independent, so nothing forces them onto one core. Run drives a
// slice of stream.PassAlgorithm children over a stream concurrently: the
// stream is still read exactly once per pass (by the producer goroutine) and
// its items are fanned out read-only, in chunks, to a pool of workers, each
// of which owns a static partition of the children. The producer also
// attaches each item's word-mask run list (bitset.Run, built once per item
// per pass into a chunk-owned arena) so every guess on every worker probes
// the same read-only runs instead of rebuilding them, and copies unstable
// items' elements into a chunk-owned arena rather than allocating per item.
// Per-guess offline sub-solves (Algorithm 1 step 3(c)) happen inside EndPass
// and therefore run concurrently across guesses too.
//
// # Determinism contract
//
// For a fixed root seed the outcome is bit-identical at every worker count:
//
//   - every child observes the full pass in stream arrival order, because
//     items are broadcast (not sharded) and each child is driven by exactly
//     one worker;
//   - children never share mutable state — in particular each child owns an
//     RNG split deterministically from the root seed at construction time;
//   - accounting is pass-synchronized (below), so Accounting is a pure
//     function of the children and the stream, not of Config.Workers.
//
// # Accounting parity
//
// Run reproduces the accounting of the sequential driver (stream.Run over a
// stream.Parallel composition): Items counts every item read per pass, Passes
// counts passes until all children finish, and PeakSpace is the peak of the
// summed child footprints sampled after BeginPass, after the last observed
// item, and after EndPass of each pass. This equals the sequential driver's
// per-item peak whenever each child's Space() is non-decreasing within a
// pass's Observe phase — true of every algorithm in this repository (space
// only grows as projections/solutions are stored; it shrinks only across
// EndPass boundaries). For a non-monotone child the reported peak is still
// deterministic, but is a lower bound on the sequential per-item sample.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamcover/internal/bitset"
	"streamcover/internal/stream"
)

// Config parameterizes Run.
type Config struct {
	// Workers is the number of worker goroutines; <= 0 selects
	// runtime.GOMAXPROCS(0). The effective count never exceeds the number
	// of still-active children.
	Workers int
	// MaxPasses bounds the run; Run returns stream.ErrPassLimit when the
	// children do not all finish within it.
	MaxPasses int
	// ChunkSize is the number of items buffered per broadcast chunk
	// (0 means DefaultChunkSize). Larger chunks amortize channel traffic;
	// smaller chunks reduce producer/worker skew.
	ChunkSize int
	// Context, when non-nil, cancels the run cooperatively: the producer
	// polls it before every pass and every broadcast chunk, and Run aborts
	// with ctx.Err() using the same shape as a mid-pass stream failure
	// (partial pass accounted, EndPass skipped). nil means no cancellation.
	Context context.Context
	// Trace, when non-nil, receives one stream.PassSample per completed
	// pass, assembled after the pass barrier (done.Wait) so every read of
	// child state is race-free. nil disables all trace work, including the
	// wall-clock reads.
	Trace stream.TraceSink
}

// DefaultChunkSize is the item fan-out granularity used when
// Config.ChunkSize is zero.
const DefaultChunkSize = 64

// Workers resolves a requested parallelism level: p if positive, else
// runtime.GOMAXPROCS(0).
func Workers(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Stable is implemented by streams whose returned Item.Elems remain valid
// (and immutable) until the next Reset. Run broadcasts such items without
// copying; items from other streams are copied into chunk-owned storage
// before they cross goroutines. Run asks once, before the first pass, so
// the answer must hold for every pass of the run.
type Stable interface {
	StableItems() bool
}

func stableItems(s stream.Stream) bool {
	st, ok := s.(Stable)
	return ok && st.StableItems()
}

// liveLanes sums the live lane counts over children exposing
// stream.LaneCounter, or returns -1 when none do — the same convention as
// the sequential driver's stream.Parallel composition.
func liveLanes(children []stream.PassAlgorithm) int {
	sum, known := 0, false
	for _, c := range children {
		if lc, ok := c.(stream.LaneCounter); ok {
			sum += lc.LiveLanes()
			known = true
		}
	}
	if !known {
		return -1
	}
	return sum
}

func replayedPass(s stream.Stream) bool {
	pr, ok := s.(stream.PassReplayer)
	return ok && pr.ReplayedPass()
}

// Run drives the children over s concurrently until every child reports
// done, mirroring stream.Run(s, stream.NewParallel(children...), maxPasses)
// in results and accounting (see the package comment for the exact parity
// statement).
func Run(s stream.Stream, children []stream.PassAlgorithm, cfg Config) (stream.Accounting, error) {
	if len(children) == 0 {
		// Preserve the sequential driver's convention: an empty composition
		// is done after one (counted) pass.
		return stream.Run(s, stream.NewParallel(), cfg.MaxPasses)
	}
	nc := len(children)
	var (
		acc      stream.Accounting
		done     = make([]bool, nc)
		retained = make([]int, nc) // final footprint of finished children
		sBegin   = make([]int, nc) // footprint after BeginPass
		sLast    = make([]int, nc) // footprint after the last observed item
		sEnd     = make([]int, nc) // footprint after EndPass
		passDone = make([]bool, nc)
		active   = make([]int, 0, nc)
	)
	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	var cancel <-chan struct{}
	if cfg.Context != nil {
		cancel = cfg.Context.Done()
	}
	p := newPool(min(Workers(cfg.Workers), nc), children, sBegin, sLast, sEnd, passDone)
	defer p.close()
	stable := stableItems(s)
	var passStart time.Time
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		if cancel != nil {
			select {
			case <-cancel:
				return acc, cfg.Context.Err()
			default:
			}
		}
		active = active[:0]
		base := 0 // finished children keep paying for retained state
		for i := range children {
			if done[i] {
				base += retained[i]
			} else {
				active = append(active, i)
			}
		}
		replayed := false
		if cfg.Trace != nil {
			passStart = time.Now()
		}
		s.Reset()
		if cfg.Trace != nil {
			replayed = replayedPass(s)
		}
		items, serr := p.runPass(s, active, pass, chunkSize, stable, cfg.Context)
		if serr != nil {
			// Mid-pass stream failure: mirror the sequential driver — account
			// the partial pass, skip EndPass, surface the error.
			sumBegin, sumLast := base, base
			for _, ci := range active {
				sumBegin += sBegin[ci]
				sumLast += sLast[ci]
			}
			acc.PeakSpace = max(acc.PeakSpace, sumBegin, sumLast)
			acc.Items += items
			acc.Passes = pass + 1
			return acc, serr
		}
		sumBegin, sumLast, sumEnd := base, base, base
		for _, ci := range active {
			sumBegin += sBegin[ci]
			sumLast += sLast[ci]
			sumEnd += sEnd[ci]
		}
		acc.PeakSpace = max(acc.PeakSpace, sumBegin, sumLast, sumEnd)
		acc.Items += items
		acc.Passes = pass + 1
		if cfg.Trace != nil {
			// runPass's done.Wait barrier already happened: child state reads
			// here are race-free.
			cfg.Trace.TracePass(stream.PassSample{
				Pass:       pass,
				Duration:   time.Since(passStart),
				Items:      items,
				SpaceWords: sumEnd,
				PeakSpace:  acc.PeakSpace,
				Live:       liveLanes(children),
				Replayed:   replayed,
			})
		}
		allDone := true
		for _, ci := range active {
			if passDone[ci] {
				done[ci] = true
				retained[ci] = sEnd[ci]
			} else {
				allDone = false
			}
		}
		if allDone {
			return acc, nil
		}
	}
	return acc, stream.ErrPassLimit{Limit: cfg.MaxPasses}
}

// chunk is one broadcast unit: a batch of items plus the chunk-owned
// arenas their views point into. Chunks are refcounted across the workers
// they were broadcast to and recycled through the pool's free list once
// every worker has consumed them, so steady-state passes allocate nothing —
// algorithms must not retain item views past Observe (the documented Item
// contract), which is exactly what makes the recycle safe.
type chunk struct {
	items     []stream.Item
	elemArena []int32
	runArena  []bitset.Run
	refs      atomic.Int32
}

// pool is a persistent worker pool spanning all passes of one Run: w
// goroutines, each owning a static strided partition of the active
// children, fed per-pass through begin tokens and per-chunk broadcast
// channels. Keeping the goroutines and chunk storage alive across passes is
// what turns the per-pass cost from "spawn w goroutines + allocate every
// arena" into zero steady-state allocation.
type pool struct {
	w        int
	children []stream.PassAlgorithm
	chans    []chan *chunk // per-worker broadcast; nil chunk = end of pass
	free     chan *chunk   // recycle channel: consumed chunks come back here
	begin    []chan struct{}
	wg       sync.WaitGroup // worker goroutine lifetimes
	done     sync.WaitGroup // per-pass completion barrier

	// Per-pass coordination state, written by the producer before the begin
	// tokens are sent (the happens-before edge) and read back only after
	// done.Wait().
	active   []int
	pass     int
	failed   bool
	sBegin   []int
	sLast    []int
	sEnd     []int
	passDone []bool
}

func newPool(w int, children []stream.PassAlgorithm,
	sBegin, sLast, sEnd []int, passDone []bool) *pool {
	if w < 1 {
		w = 1
	}
	p := &pool{
		w: w, children: children,
		chans:  make([]chan *chunk, w),
		free:   make(chan *chunk, 4*w+4),
		begin:  make([]chan struct{}, w),
		sBegin: sBegin, sLast: sLast, sEnd: sEnd, passDone: passDone,
	}
	for i := range p.chans {
		p.chans[i] = make(chan *chunk, 4)
		p.begin[i] = make(chan struct{}, 1)
	}
	p.wg.Add(w)
	for wi := 0; wi < w; wi++ {
		go p.worker(wi)
	}
	return p
}

// close shuts the worker goroutines down; it must only be called between
// passes (after runPass returned).
func (p *pool) close() {
	for _, ch := range p.begin {
		close(ch)
	}
	p.wg.Wait()
}

func (p *pool) worker(wi int) {
	defer p.wg.Done()
	for range p.begin[wi] {
		active, pass := p.active, p.pass
		for j := wi; j < len(active); j += p.w {
			ci := active[j]
			p.children[ci].BeginPass(pass)
			p.sBegin[ci] = p.children[ci].Space()
			p.sLast[ci] = p.sBegin[ci]
		}
		for {
			ck := <-p.chans[wi]
			if ck == nil {
				break
			}
			for j := wi; j < len(active); j += p.w {
				ci := active[j]
				c := p.children[ci]
				for _, item := range ck.items {
					c.Observe(item)
				}
				p.sLast[ci] = c.Space()
			}
			p.release(ck)
		}
		// failed was written by the producer before the nil sentinel was
		// sent, so the receive above is the happens-before edge.
		if !p.failed {
			for j := wi; j < len(active); j += p.w {
				ci := active[j]
				p.passDone[ci] = p.children[ci].EndPass()
				p.sEnd[ci] = p.children[ci].Space()
			}
		}
		p.done.Done()
	}
}

// release returns a fully consumed chunk to the free list; when the list is
// full the chunk is simply dropped for the GC.
func (p *pool) release(ck *chunk) {
	if ck.refs.Add(-1) == 0 {
		select {
		case p.free <- ck:
		default:
		}
	}
}

// get recycles a chunk from the free list, or allocates a fresh one (cold
// start, or the free list momentarily drained). Recycled arenas keep their
// capacity: a warmed pool serves every later pass allocation-free.
func (p *pool) get(chunkSize int) *chunk {
	select {
	case ck := <-p.free:
		ck.items = ck.items[:0]
		ck.elemArena = ck.elemArena[:0]
		ck.runArena = ck.runArena[:0]
		return ck
	default:
		return &chunk{items: make([]stream.Item, 0, chunkSize)}
	}
}

// send broadcasts a chunk to every worker, transferring w references.
func (p *pool) send(ck *chunk) {
	ck.refs.Store(int32(p.w))
	for _, ch := range p.chans {
		ch <- ck
	}
}

// runPass fans one pass of s out to the active children: the pool's workers
// own a strided partition of the children while the calling goroutine reads
// the stream once and broadcasts read-only item chunks. Returns the number
// of items read and the stream's mid-pass error, if any; on error the
// workers skip EndPass (matching the sequential driver, which aborts before
// it). A cancelled ctx (polled once per chunk) surfaces the same way, as a
// mid-pass failure with ctx.Err().
//
// Chunk-owned arenas: unstable items are copied into elemArena (one
// amortized copy per chunk instead of an allocation per item) and each
// item's word-mask run list is built once here, into runArena, so all
// guesses on all workers share one read-only run list per item. Views stay
// valid even if a later append within the chunk reallocates, because the
// copied-out prefix keeps its old backing array. Building a run list costs
// about one scalar probe loop and pays from the second consumer onward, so
// with a single active child the consumer's scalar fallback is cheaper and
// the build is skipped; items that arrive with Runs already attached (a
// replayed plan) are broadcast as-is.
func (p *pool) runPass(s stream.Stream, active []int, pass, chunkSize int,
	stable bool, ctx context.Context) (int, error) {
	p.active, p.pass, p.failed = active, pass, false
	p.done.Add(p.w)
	for _, ch := range p.begin {
		ch <- struct{}{}
	}
	buildRuns := len(active) > 1
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var cancelErr error
	items := 0
	ck := p.get(chunkSize)
	for cancelErr == nil {
		item, ok := s.Next()
		if !ok {
			break
		}
		if !stable {
			start := len(ck.elemArena)
			ck.elemArena = append(ck.elemArena, item.Elems...)
			item.Elems = ck.elemArena[start:len(ck.elemArena):len(ck.elemArena)]
		}
		if buildRuns && item.Runs == nil {
			start := len(ck.runArena)
			ck.runArena = bitset.AppendRuns(ck.runArena, item.Elems)
			item.Runs = ck.runArena[start:len(ck.runArena):len(ck.runArena)]
		}
		items++
		ck.items = append(ck.items, item)
		if len(ck.items) == chunkSize {
			p.send(ck)
			ck = p.get(chunkSize)
			if cancel != nil {
				select {
				case <-cancel:
					cancelErr = ctx.Err()
				default:
				}
			}
		}
	}
	if len(ck.items) > 0 {
		p.send(ck)
	} else {
		select {
		case p.free <- ck:
		default:
		}
	}
	serr := stream.PassErr(s)
	if serr == nil {
		serr = cancelErr
	}
	p.failed = serr != nil
	for _, ch := range p.chans {
		ch <- nil
	}
	p.done.Wait()
	return items, serr
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
