// Package stream provides the multi-pass set-streaming substrate of
// streamcover.
//
// The streaming set cover model (Saha–Getoor 2009; the model of the paper)
// reveals the m input sets one at a time; an algorithm may take several
// passes over the stream but must keep its working memory sublinear in the
// input size m·n. This package defines:
//
//   - Stream: a resettable, one-at-a-time source of sets, yielding
//     zero-copy []int32 views (into the instance's CSR arena, or a file
//     stream's decode buffer);
//   - PassAlgorithm: the state-machine shape of a multi-pass algorithm;
//   - Driver: runs a PassAlgorithm over a Stream while accounting for the
//     number of passes and the peak working space in words; drivers check
//     Failer after every pass so file-backed streams fail loudly;
//   - file-backed streams for both on-disk codecs (FileStream for text,
//     BinaryFileStream for binary; Open auto-detects), re-reading the file
//     every pass so larger-than-memory instances stream honestly;
//   - arrival orders: adversarial (as given), a fixed random permutation
//     (the paper's random arrival model), or a fresh shuffle every pass.
//
// Space is measured in words: one stored set ID or element ID counts as one
// word. Algorithms report their current footprint via Space(); the Driver
// polls it after every item and records the peak. This matches the paper's
// accounting, which states bounds in (poly-log factors times) the number of
// stored IDs rather than bits.
package stream

import (
	"context"
	"fmt"
	"time"

	"streamcover/internal/bitset"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// Item is one stream element: a set and its identifier. Elems is a
// zero-copy view into the stream's storage (the instance's CSR arena, or a
// file stream's read buffer) and must not be retained or mutated by
// algorithms; copy what you keep (the copy is what you pay space for).
type Item struct {
	ID    int
	Elems []int32
	// Runs is the word-mask run view of Elems — (word, mask) pairs covering
	// the same elements — consumed by the bitset run kernels. Drivers that
	// fan one item out to many consumers prefill it once per item per pass
	// (parallel.runPass on the producer side, Parallel.Observe in the
	// sequential driver) so every consumer shares one read-only run list;
	// nil means the consumer builds its own via RunsInto. Like Elems, Runs
	// must not be retained past Observe or mutated.
	Runs []bitset.Run
}

// RunsInto returns the item's word-mask run list. When a producer prefilled
// Runs, the shared list is returned and scratch passes through untouched;
// otherwise the runs are built into scratch[:0] and returned as both values
// (keep the returned scratch across items to stay allocation-free):
//
//	runs, a.runScratch = item.RunsInto(a.runScratch)
func (it Item) RunsInto(scratch []bitset.Run) (runs, newScratch []bitset.Run) {
	if it.Runs != nil {
		return it.Runs, scratch
	}
	scratch = bitset.AppendRuns(scratch[:0], it.Elems)
	return scratch, scratch
}

// Stream is a resettable source of set items. Universe and Len are the
// standard metadata (n and m) assumed known to streaming algorithms.
type Stream interface {
	Universe() int
	Len() int
	// Reset starts a new pass. It must be called before the first pass too.
	Reset()
	// Next returns the next item of the current pass, or ok=false at the end
	// of the pass.
	Next() (item Item, ok bool)
}

// Order selects the arrival order of the sets.
type Order int

const (
	// Adversarial streams the sets exactly in instance order.
	Adversarial Order = iota
	// RandomOnce applies one random permutation, the same for every pass.
	// This is the paper's random arrival model.
	RandomOnce
	// RandomEachPass applies a fresh random permutation on every pass.
	RandomEachPass
)

func (o Order) String() string {
	switch o {
	case Adversarial:
		return "adversarial"
	case RandomOnce:
		return "random-once"
	case RandomEachPass:
		return "random-each-pass"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// InstanceStream streams an in-memory instance.
type InstanceStream struct {
	inst  *setsystem.Instance
	order Order
	r     *rng.RNG
	perm  []int
	pos   int
}

// FromInstance returns a stream over inst with the given arrival order.
// The RNG is used only for the random orders and may be nil for Adversarial.
func FromInstance(inst *setsystem.Instance, order Order, r *rng.RNG) *InstanceStream {
	s := &InstanceStream{inst: inst, order: order, r: r}
	s.perm = make([]int, inst.M())
	for i := range s.perm {
		s.perm[i] = i
	}
	if order == RandomOnce {
		if r == nil {
			panic("stream: RandomOnce requires an RNG")
		}
		r.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	}
	s.pos = inst.M() // force Reset before use
	return s
}

// Universe returns the universe size n.
func (s *InstanceStream) Universe() int { return s.inst.N }

// Len returns the number of sets m.
func (s *InstanceStream) Len() int { return s.inst.M() }

// Reset starts a new pass.
func (s *InstanceStream) Reset() {
	if s.order == RandomEachPass {
		if s.r == nil {
			panic("stream: RandomEachPass requires an RNG")
		}
		s.r.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	}
	s.pos = 0
}

// Next returns the next set of the current pass as a zero-copy view into
// the instance's arena.
func (s *InstanceStream) Next() (Item, bool) {
	if s.pos >= len(s.perm) {
		return Item{}, false
	}
	id := s.perm[s.pos]
	s.pos++
	return Item{ID: id, Elems: s.inst.Set(id)}, true
}

// StableItems reports that returned Item.Elems alias the instance's set
// storage, which is never mutated: items stay valid across the whole run, so
// concurrent drivers may broadcast them without copying.
func (s *InstanceStream) StableItems() bool { return true }

// PassAlgorithm is the state-machine shape of a multi-pass streaming
// algorithm. The Driver calls BeginPass, then Observe for every item of the
// pass, then EndPass; it stops when EndPass reports done (or the pass limit
// is hit). Space must return the algorithm's current footprint in words.
type PassAlgorithm interface {
	BeginPass(pass int)
	Observe(item Item)
	EndPass() (done bool)
	Space() int
}

// Accounting is the driver's measurement of a run.
type Accounting struct {
	Passes    int
	PeakSpace int // peak words held at any point during the run
	Items     int // total items observed across all passes
}

// ErrPassLimit is returned by Run when the algorithm did not finish within
// the pass limit.
type ErrPassLimit struct{ Limit int }

func (e ErrPassLimit) Error() string {
	return fmt.Sprintf("stream: algorithm did not finish within %d passes", e.Limit)
}

// Failer is implemented by streams that can fail mid-pass (file-backed
// streams: truncated files, corrupt payloads). For such streams Next
// returning ok=false is ambiguous — end of pass or error — so drivers must
// consult Err after each pass and abort the run on a non-nil result.
// In-memory streams need not implement it.
type Failer interface {
	// Err returns the first error encountered while streaming, or nil.
	Err() error
}

// PassErr returns the stream's error if it is a Failer, else nil. Drivers
// (Run here, parallel.Run) call it after every pass so a mid-pass stream
// failure aborts the run instead of masquerading as a clean short pass.
func PassErr(s Stream) error {
	if f, ok := s.(Failer); ok {
		return f.Err()
	}
	return nil
}

// Run drives alg over s until it reports done, recording passes and peak
// space. maxPasses bounds the run (use a generous limit; it exists to turn
// non-terminating bugs into errors). A stream failure (Failer reporting a
// non-nil Err after a pass) aborts the run with that error.
func Run(s Stream, alg PassAlgorithm, maxPasses int) (Accounting, error) {
	return RunContext(context.Background(), s, alg, maxPasses)
}

// CancelCheckInterval is how many items a driver observes between
// cancellation polls: often enough that a cancelled solve aborts within a
// fraction of a pass, rarely enough that the poll never shows up in the
// per-item profile.
const CancelCheckInterval = 1024

// RunContext is Run with cooperative cancellation: the driver polls
// ctx.Done() before every pass and every CancelCheckInterval items within a
// pass, and aborts the run with ctx.Err() (accounting the partial pass,
// skipping EndPass — the same abort shape as a mid-pass stream failure).
// A context that can never be cancelled costs nothing: ctx.Done() == nil
// disables the per-item polls entirely.
func RunContext(ctx context.Context, s Stream, alg PassAlgorithm, maxPasses int) (Accounting, error) {
	return RunTraced(ctx, s, alg, maxPasses, nil)
}

// RunTraced is RunContext with per-pass observability: after every clean
// pass it emits one PassSample to sink. A nil sink is exactly RunContext —
// the wall-clock reads and the optional-interface queries are gated on the
// sink, so untraced runs pay nothing. Tracing never touches the per-item
// loop: samples are assembled only at pass boundaries, keeping the trace
// O(passes) and the hot path allocation-free.
func RunTraced(ctx context.Context, s Stream, alg PassAlgorithm, maxPasses int, sink TraceSink) (Accounting, error) {
	var acc Accounting
	cancel := ctx.Done()
	var passStart time.Time
	for pass := 0; pass < maxPasses; pass++ {
		if cancel != nil {
			select {
			case <-cancel:
				return acc, ctx.Err()
			default:
			}
		}
		itemsBefore := acc.Items
		replayed := false
		if sink != nil {
			passStart = time.Now()
		}
		s.Reset()
		if sink != nil {
			replayed = replayedPass(s)
		}
		alg.BeginPass(pass)
		if sp := alg.Space(); sp > acc.PeakSpace {
			acc.PeakSpace = sp
		}
		sincePoll := 0
		for {
			item, ok := s.Next()
			if !ok {
				break
			}
			alg.Observe(item)
			acc.Items++
			if sp := alg.Space(); sp > acc.PeakSpace {
				acc.PeakSpace = sp
			}
			if cancel != nil {
				if sincePoll++; sincePoll >= CancelCheckInterval {
					sincePoll = 0
					select {
					case <-cancel:
						acc.Passes = pass + 1
						return acc, ctx.Err()
					default:
					}
				}
			}
		}
		if err := PassErr(s); err != nil {
			acc.Passes = pass + 1
			return acc, err
		}
		done := alg.EndPass()
		if sp := alg.Space(); sp > acc.PeakSpace {
			acc.PeakSpace = sp
		}
		acc.Passes = pass + 1
		if sink != nil {
			sink.TracePass(PassSample{
				Pass:       pass,
				Duration:   time.Since(passStart),
				Items:      acc.Items - itemsBefore,
				SpaceWords: alg.Space(),
				PeakSpace:  acc.PeakSpace,
				Live:       liveLanes(alg),
				Replayed:   replayed,
			})
		}
		if done {
			return acc, nil
		}
	}
	return acc, ErrPassLimit{Limit: maxPasses}
}

// Parallel composes several PassAlgorithms that run over the same passes in
// lockstep, the streaming analogue of running them "in parallel" on one
// stream. It is done when every child is done; its space is the sum of the
// children's (finished children keep paying for whatever state they retain,
// e.g. their solution). Children that finish early stop receiving items.
type Parallel struct {
	children []PassAlgorithm
	done     []bool
	active   int // children still running this pass, set by BeginPass
	// runScratch backs the per-item run list built once in Observe and
	// shared by every child — the sequential driver's side of the
	// one-pass-many-consumers amortization (parallel.runPass is the
	// concurrent side). Reused across items, so steady-state Observe is
	// allocation-free.
	runScratch []bitset.Run
}

// NewParallel returns the parallel composition of the given algorithms.
func NewParallel(children ...PassAlgorithm) *Parallel {
	return &Parallel{children: children, done: make([]bool, len(children))}
}

// BeginPass implements PassAlgorithm.
func (p *Parallel) BeginPass(pass int) {
	p.active = 0
	for i, c := range p.children {
		if !p.done[i] {
			p.active++
			c.BeginPass(pass)
		}
	}
}

// Observe implements PassAlgorithm. The item's run list is built once here
// (when no upstream producer already attached one) so all children share
// it. With at most one child still running the build cannot amortize —
// building costs about one scalar probe loop — so the lone child is left
// to its scalar fallback.
func (p *Parallel) Observe(item Item) {
	if item.Runs == nil && p.active > 1 {
		p.runScratch = bitset.AppendRuns(p.runScratch[:0], item.Elems)
		item.Runs = p.runScratch
	}
	for i, c := range p.children {
		if !p.done[i] {
			c.Observe(item)
		}
	}
}

// EndPass implements PassAlgorithm.
func (p *Parallel) EndPass() bool {
	all := true
	for i, c := range p.children {
		if !p.done[i] {
			p.done[i] = c.EndPass()
		}
		all = all && p.done[i]
	}
	return all
}

// Space implements PassAlgorithm.
func (p *Parallel) Space() int {
	sum := 0
	for _, c := range p.children {
		sum += c.Space()
	}
	return sum
}

// Children returns the composed algorithms, in order.
func (p *Parallel) Children() []PassAlgorithm { return p.children }
