package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"streamcover/internal/bitset"
)

// chunkSize is the driver's item granularity: the worker pool broadcasts
// items in chunks of this many, and every run polls for cancellation once
// per chunkSize items — often enough that a cancelled solve aborts within a
// fraction of a pass, rarely enough that the poll never shows in a profile.
const chunkSize = 64

// Run drives alg over s until it reports done, recording passes and peak
// space. maxPasses bounds the run (use a generous limit; it exists to turn
// non-terminating bugs into errors). A stream failure (Failer reporting a
// non-nil Err after a pass) aborts the run with that error.
func Run(s Stream, alg PassAlgorithm, maxPasses int) (Accounting, error) {
	return RunContext(context.Background(), s, alg, maxPasses)
}

// RunContext is Run with cooperative cancellation (see Drive). A context
// that can never be cancelled costs nothing: its nil Done channel makes
// every poll a no-op.
func RunContext(ctx context.Context, s Stream, alg PassAlgorithm, maxPasses int) (Accounting, error) {
	return RunTraced(ctx, s, alg, maxPasses, nil)
}

// RunTraced is RunContext with per-pass observability: after every clean
// pass it emits one PassSample to sink (see Drive).
func RunTraced(ctx context.Context, s Stream, alg PassAlgorithm, maxPasses int, sink TraceSink) (Accounting, error) {
	return Drive(ctx, s, []PassAlgorithm{alg}, 1, maxPasses, sink)
}

// child is a child's slot in a run; done is set by EndPass on whichever
// goroutine drove the pass and read by Drive after it.
type child struct {
	alg  PassAlgorithm
	done bool
}

// Drive is the pass driver: it runs the children over s in pass lockstep
// until every child reports done. Run, RunContext and RunTraced drive one
// algorithm through it; parallel.Run drives many at a worker count.
//
// Every pass resets s, begins the pass on each running child, feeds the
// children every item in arrival order, checks PassErr and ends the pass.
// A finished child stops receiving items but keeps paying for the state it
// retains; with no children a run is one counted pass. The worker count
// changes only how items reach the children. When min(workers, running
// children) is 1 the children run inline on the caller's goroutine: no
// goroutines, channels, chunks or copies. Otherwise each goroutine of a
// persistent pool drives a strided partition of the running children, and
// the caller broadcasts the items to them in recycled chunks, copied into
// the chunk unless s is Stable. Whenever more than one child is running,
// each item's run list is built once and shared.
//
// Results and accounting are bit-identical at every worker count: each
// child observes the full pass in arrival order on one goroutine, and
// children share no mutable state. PeakSpace is exact for any child,
// monotone or not: the maximum of the children's summed Space() after
// BeginPass, after every item and after EndPass. In the pool each worker
// records its partition's footprint after every item of a chunk, and the
// worker that releases the chunk last folds the per-item sums.
//
// ctx is polled before every pass, every chunkSize items and after EndPass.
// A cancel aborts the run with ctx.Err(). Mid-pass it has the shape of a
// stream failure: the partial pass is accounted and EndPass is skipped. A
// cancel that lands after a pass's last poll still fails the run, since
// EndPass may have run sub-solves against the cancelled context.
//
// After every clean pass a non-nil sink receives one PassSample. A nil sink
// costs no clock reads and no interface queries, and tracing never touches
// the per-item loop.
func Drive(ctx context.Context, s Stream, children []PassAlgorithm, workers, maxPasses int, sink TraceSink) (Accounting, error) {
	var (
		acc       Accounting
		cancel    = ctx.Done()
		lone      [1]child // a lone child's slot stays off the heap
		running   = lone[:0]
		retained  int          // words held by finished children
		runs      []bitset.Run // inline run-list scratch
		p         *pool
		passStart time.Time
	)
	if len(children) > 1 {
		running = make([]child, 0, len(children))
	}
	for _, c := range children {
		running = append(running, child{alg: c})
	}
	if n := min(workers, len(children)); n > 1 {
		p = newPool(n, stableItems(s))
		defer p.close()
	}
	for pass := 0; pass < maxPasses; pass++ {
		if canceled(cancel) {
			return acc, ctx.Err()
		}
		w, shareRuns := min(workers, len(running)), len(running) > 1
		if sink != nil {
			passStart = time.Now()
		}
		s.Reset()
		replayed := sink != nil && replayedPass(s)
		var peak, end int
		if w > 1 {
			p.begin(running, w, pass, shareRuns)
		} else {
			peak = beginPart(running, 0, 1, pass)
		}
		var err error
		items := 0
		for {
			item, ok := s.Next()
			if !ok {
				break
			}
			items++
			if w > 1 {
				p.add(item)
			} else {
				if shareRuns && item.Runs == nil {
					runs = bitset.AppendRuns(runs[:0], item.Elems)
					item.Runs = runs
				}
				var sp [1]int
				observePart(running, 0, 1, []Item{item}, sp[:])
				peak = max(peak, sp[0])
			}
			if items%chunkSize == 0 && canceled(cancel) {
				err = ctx.Err()
				break
			}
		}
		if serr := PassErr(s); serr != nil {
			err = serr
		}
		if w > 1 {
			peak, end = p.end(running, err != nil)
		} else if err == nil {
			end = endPart(running, 0, 1)
			peak = max(peak, end)
		}
		acc.PeakSpace = max(acc.PeakSpace, retained+peak)
		acc.Items += items
		acc.Passes = pass + 1
		if err == nil && canceled(cancel) {
			err = ctx.Err()
		}
		if err != nil {
			return acc, err
		}
		if sink != nil {
			sink.TracePass(PassSample{
				Pass:       pass,
				Duration:   time.Since(passStart),
				Items:      items,
				SpaceWords: retained + end,
				PeakSpace:  acc.PeakSpace,
				Live:       liveLanes(children),
				Replayed:   replayed,
			})
		}
		live := running[:0]
		for _, c := range running {
			if c.done {
				retained += c.alg.Space()
			} else {
				live = append(live, c)
			}
		}
		if running = live; len(running) == 0 {
			return acc, nil
		}
	}
	return acc, ErrPassLimit{Limit: maxPasses}
}

func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// beginPart, observePart and endPart drive one partition of the running
// children: the slots wi, wi+w, wi+2w, ... Pool worker wi of w drives
// partition wi; the inline path is partition 0 of 1. Each reports the
// partition's summed footprint, the per-goroutine term of the run's peak.

func beginPart(running []child, wi, w, pass int) (space int) {
	for j := wi; j < len(running); j += w {
		running[j].alg.BeginPass(pass)
		space += running[j].alg.Space()
	}
	return space
}

// observePart feeds the items to the partition child by child and sets
// space[k] to the partition's summed footprint after item k.
func observePart(running []child, wi, w int, items []Item, space []int) {
	clear(space[:len(items)])
	for j := wi; j < len(running); j += w {
		c := running[j].alg
		for k, item := range items {
			c.Observe(item)
			space[k] += c.Space()
		}
	}
}

func endPart(running []child, wi, w int) (space int) {
	for j := wi; j < len(running); j += w {
		c := &running[j]
		c.done = c.alg.EndPass()
		space += c.alg.Space()
	}
	return space
}

// chunk is one broadcast unit: up to chunkSize items, the chunk-owned
// arenas their views point into, and each worker's partition footprint
// after every item. Chunks are refcounted across the workers of a pass and
// recycled through the pool's free list once every worker has consumed
// them, so steady-state passes allocate nothing — algorithms must not
// retain item views past Observe (the Item contract), which is what makes
// the recycle safe.
type chunk struct {
	items     []Item
	elemArena []int32
	runArena  []bitset.Run
	space     []int // space[wi*chunkSize+k]: worker wi's partition after item k
	refs      atomic.Int32
}

// partSpace is one worker's report for a pass: its partition's footprint
// after BeginPass and after EndPass, and the peak of the chunks it
// released last.
type partSpace struct{ begin, peak, end int }

// pool is the persistent worker pool of one run: goroutines fed per pass
// through begin tokens and per-chunk broadcast channels. A pass uses its
// first w workers, w = min(workers, running children). Keeping goroutines
// and chunks alive across passes makes steady-state passes allocation-free.
type pool struct {
	chans  []chan *chunk // per-worker broadcast; nil chunk = end of pass
	begins []chan struct{}
	free   chan *chunk    // consumed chunks come back here
	wg     sync.WaitGroup // worker goroutine lifetimes
	done   sync.WaitGroup // per-pass completion barrier
	stable bool           // items outlive the pass: broadcast without copying
	ck     *chunk         // the chunk being filled; nil until the next item

	// Per-pass state, written before the begin tokens are sent (the
	// happens-before edge) and read back only after done.Wait. running is
	// the pool's own copy of the caller's slots, so theirs never escape to
	// the heap.
	running   []child
	w, pass   int
	shareRuns bool
	failed    bool
	parts     []partSpace
}

func newPool(n int, stable bool) *pool {
	p := &pool{
		chans:  make([]chan *chunk, n),
		begins: make([]chan struct{}, n),
		free:   make(chan *chunk, 4*n+4),
		stable: stable,
		parts:  make([]partSpace, n),
	}
	// Four buffered chunks per worker let the reader run ahead of a slow
	// worker without stalling the others. So at most six chunks are out at
	// once (four buffered, one being consumed, one being filled), and the
	// free list's 4n+4 slots never have to drop a consumed chunk.
	for i := range n {
		p.chans[i] = make(chan *chunk, 4)
		p.begins[i] = make(chan struct{}, 1)
	}
	p.wg.Add(n)
	for wi := range n {
		go p.worker(wi)
	}
	return p
}

// close shuts the worker goroutines down; it must only be called between
// passes.
func (p *pool) close() {
	for _, ch := range p.begins {
		close(ch)
	}
	p.wg.Wait()
}

func (p *pool) worker(wi int) {
	defer p.wg.Done()
	for range p.begins[wi] {
		running, w := p.running, p.w
		ps := partSpace{begin: beginPart(running, wi, w, p.pass)}
		for ck := <-p.chans[wi]; ck != nil; ck = <-p.chans[wi] {
			observePart(running, wi, w, ck.items, ck.space[wi*chunkSize:])
			ps.peak = max(ps.peak, p.release(ck))
		}
		// failed was written before the nil sentinel was sent, so the
		// receive above is the happens-before edge.
		if !p.failed {
			ps.end = endPart(running, wi, w)
		}
		p.parts[wi] = ps
		p.done.Done()
	}
}

// release drops one worker's reference to a consumed chunk. The worker that
// lets go last sees every partition's row, so it returns the chunk's peak —
// the largest per-item sum across the pass's workers — and recycles the
// chunk; the others return 0.
func (p *pool) release(ck *chunk) (peak int) {
	if ck.refs.Add(-1) != 0 {
		return 0
	}
	for k := range ck.items {
		sum := 0
		for wi := range p.w {
			sum += ck.space[wi*chunkSize+k]
		}
		peak = max(peak, sum)
	}
	select {
	case p.free <- ck:
	default: // free list full: leave the chunk to the GC
	}
	return peak
}

// get recycles a chunk from the free list, or allocates a fresh one (cold
// start, or the free list momentarily drained). Recycled arenas keep their
// capacity: a warmed pool serves every later pass allocation-free.
func (p *pool) get() *chunk {
	select {
	case ck := <-p.free:
		ck.items, ck.elemArena, ck.runArena = ck.items[:0], ck.elemArena[:0], ck.runArena[:0]
		return ck
	default:
		return &chunk{items: make([]Item, 0, chunkSize), space: make([]int, len(p.chans)*chunkSize)}
	}
}

// begin starts a pass on the first w workers.
func (p *pool) begin(running []child, w, pass int, shareRuns bool) {
	p.running = append(p.running[:0], running...)
	p.w, p.pass, p.shareRuns, p.failed = w, pass, shareRuns, false
	p.done.Add(w)
	for _, ch := range p.begins[:w] {
		ch <- struct{}{}
	}
}

// add appends one item to the chunk being filled — its elements copied
// into the chunk's arena unless the stream is Stable, its run list built
// into the chunk's run arena when runs are shared — and broadcasts the
// chunk once full. Views stay valid even if a later append reallocates an
// arena, because the copied-out prefix keeps its old backing array.
func (p *pool) add(item Item) {
	if p.ck == nil {
		p.ck = p.get()
	}
	ck := p.ck
	if !p.stable {
		start := len(ck.elemArena)
		ck.elemArena = append(ck.elemArena, item.Elems...)
		item.Elems = ck.elemArena[start:len(ck.elemArena):len(ck.elemArena)]
	}
	if p.shareRuns && item.Runs == nil {
		start := len(ck.runArena)
		ck.runArena = bitset.AppendRuns(ck.runArena, item.Elems)
		item.Runs = ck.runArena[start:len(ck.runArena):len(ck.runArena)]
	}
	ck.items = append(ck.items, item)
	if len(ck.items) == chunkSize {
		p.send()
	}
}

// send broadcasts the chunk being filled to the pass's workers. The next
// item takes a fresh chunk, so a pass's last send leaves none behind to
// allocate before the pass's chunks come back to the free list.
func (p *pool) send() {
	p.ck.refs.Store(int32(p.w))
	for _, ch := range p.chans[:p.w] {
		ch <- p.ck
	}
	p.ck = nil
}

// end flushes the last partial chunk, ends the pass on the workers (they
// skip EndPass when failed), waits for them and copies their slots back
// into running. It returns the pass's peak of the running children's summed
// footprint and their footprint after EndPass.
func (p *pool) end(running []child, failed bool) (peak, end int) {
	if p.ck != nil {
		p.send()
	}
	p.failed = failed
	for _, ch := range p.chans[:p.w] {
		ch <- nil
	}
	p.done.Wait()
	copy(running, p.running)
	begin := 0
	for _, ps := range p.parts[:p.w] {
		begin += ps.begin
		peak = max(peak, ps.peak)
		end += ps.end
	}
	return max(peak, begin, end), end
}
