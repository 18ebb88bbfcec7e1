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
//   - Drive: the one pass driver, behind Run/RunContext/RunTraced (one
//     algorithm) and parallel.Run (many children at a worker count). It
//     runs inline on the caller's goroutine at one worker, accounts passes
//     and the exact peak working space in words, and checks Failer after
//     every pass so file-backed streams fail loudly;
//   - file-backed streams for every on-disk codec (FileStream for text and
//     SCB1 over setsystem's SetReader, MappedFileStream for SCB2; Open
//     sniffs the codec), re-reading the file every pass so
//     larger-than-memory instances stream honestly;
//   - arrival orders: adversarial (as given), a fixed random permutation
//     (the paper's random arrival model), or a fresh shuffle every pass.
//
// Space is measured in words: one stored set ID or element ID counts as one
// word. Algorithms report their current footprint via Space(); the driver
// sums it over the children after every item and records the peak, at any
// worker count and for any child, monotone or not. This matches the paper's
// accounting, which states bounds in (poly-log factors times) the number of
// stored IDs rather than bits.
package stream

import (
	"fmt"

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
	// the same elements — consumed by the bitset run kernels. When more
	// than one child is running, the driver prefills it once per item per
	// pass so every consumer shares one read-only run list; nil means the
	// consumer builds its own via RunsInto. Like Elems, Runs must not be
	// retained past Observe or mutated.
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

// StableItems implements Stable: returned Item.Elems alias the instance's
// set storage, which is never mutated.
func (s *InstanceStream) StableItems() bool { return true }

// Stable is implemented by streams whose Item views stay valid and
// unchanged after later Next and Reset calls. The driver's worker pool
// broadcasts such items without copying, and BuildPlan aliases them
// instead of copying. Drive asks once per run, so the answer must hold for
// every pass.
type Stable interface {
	StableItems() bool
}

func stableItems(s Stream) bool {
	st, ok := s.(Stable)
	return ok && st.StableItems()
}

// PassAlgorithm is the state-machine shape of a multi-pass streaming
// algorithm. The driver calls BeginPass, then Observe for every item of the
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

// ErrPassLimit is returned when a run did not finish within the pass
// limit.
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

// PassErr returns the stream's error if it is a Failer, else nil. Drive
// calls it after every pass so a mid-pass stream failure aborts the run
// instead of masquerading as a clean short pass.
func PassErr(s Stream) error {
	if f, ok := s.(Failer); ok {
		return f.Err()
	}
	return nil
}
