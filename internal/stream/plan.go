package stream

import (
	"errors"
	"fmt"

	"streamcover/internal/bitset"
)

// This file is the pass-replay plane: a recording of one full pass —
// per-set elements plus the prebuilt word-mask run list — that serves every
// later pass from memory. A p-pass solve reads the same m sets p times; the
// plan pays the full decode + run-build price once and every pass becomes
// O(1) per item with zero allocation. The recording is a serving
// optimization, not algorithm state: it is never charged to
// Accounting.PeakSpace (the paper's space accounting stays honest) and the
// experiments harness keeps it off. Budgeting is the caller's job — the
// coverd registry charges Plan.Bytes against its resident-memory budget and
// drops the plan on eviction.

// ErrPlanBudget is returned by BuildPlan when recording the stream would
// exceed the byte budget.
var ErrPlanBudget = errors.New("stream: replay plan exceeds byte budget")

// planSetOverheadBytes is the accounted fixed cost per recorded set: the
// two per-ID slice headers (elements, runs) plus bookkeeping, rounded up.
const planSetOverheadBytes = 64

// Plan is an immutable recording of a stream's items, indexed by set ID:
// each set's elements (aliased into the source's stable storage when
// possible, else copied into one contiguous arena) and its bitset.Run list
// (always one contiguous arena, allocated once at its exact size). A Plan
// is read-only after construction and safe to share across concurrent
// solves.
type Plan struct {
	n, m  int
	elems [][]int32
	runs  [][]bitset.Run
	bytes int64
}

// Universe returns the recorded universe size n.
func (p *Plan) Universe() int { return p.n }

// Len returns the recorded number of sets m.
func (p *Plan) Len() int { return p.m }

// Bytes returns the accounted size of the plan: copied element words,
// run-list entries, and per-set table overhead. Elements aliased into the
// source's own storage are not charged (that memory is already accounted to
// the source).
func (p *Plan) Bytes() int64 { return p.bytes }

// Item returns the recorded item for the given set ID, with the shared
// run list attached. The views are immutable and valid for the life of the
// plan.
func (p *Plan) Item(id int) Item {
	return Item{ID: id, Elems: p.elems[id], Runs: p.runs[id]}
}

// planBuilder accumulates one pass of items. Runs are only counted while
// recording; finalize builds them from the recorded elements into one
// arena of the exact size, so the plan never grows a run arena by append.
type planBuilder struct {
	n, m   int
	alias  bool
	budget int64 // <= 0 means unlimited

	views   [][]int32 // per-ID element views: the source's storage (alias) or, at finalize, the arena
	elems   []int32   // copy mode: one contiguous element arena
	elemOff []int64   // copy mode: per-ID arena offsets
	elemLen []int32
	nruns   int
	seen    []bool
	count   int
}

func newPlanBuilder(n, m int, alias bool, budget int64) *planBuilder {
	b := &planBuilder{n: n, m: m, alias: alias, budget: budget}
	b.views = make([][]int32, m)
	if !alias {
		b.elemOff = make([]int64, m)
		b.elemLen = make([]int32, m)
	}
	b.seen = make([]bool, m)
	return b
}

func (b *planBuilder) bytes() int64 {
	return int64(b.count)*planSetOverheadBytes +
		int64(len(b.elems))*4 + int64(b.nruns)*16
}

// record stores one item's elements and counts its runs. It fails on an ID
// outside [0, m), a duplicate ID within the pass, or a blown byte budget.
func (b *planBuilder) record(it Item) error {
	id := it.ID
	if id < 0 || id >= b.m {
		return fmt.Errorf("stream: replay plan: set id %d out of range [0, %d)", id, b.m)
	}
	if b.seen[id] {
		return fmt.Errorf("stream: replay plan: duplicate set id %d within a pass", id)
	}
	b.seen[id] = true
	if b.alias {
		b.views[id] = it.Elems
	} else {
		b.elemOff[id], b.elemLen[id] = int64(len(b.elems)), int32(len(it.Elems))
		b.elems = append(b.elems, it.Elems...)
	}
	b.nruns += bitset.CountRuns(it.Elems)
	b.count++
	if b.budget > 0 && b.bytes() > b.budget {
		return ErrPlanBudget
	}
	return nil
}

// finalize slices the per-ID element views out of the copy arena (copy
// mode), builds every run list into one exactly-sized arena, and returns
// the immutable plan. The builder must have recorded exactly m distinct
// IDs.
func (b *planBuilder) finalize() *Plan {
	p := &Plan{n: b.n, m: b.m, elems: b.views, runs: make([][]bitset.Run, b.m), bytes: b.bytes()}
	if !b.alias {
		for id := range p.elems {
			off, ln := b.elemOff[id], int64(b.elemLen[id])
			p.elems[id] = b.elems[off : off+ln : off+ln]
		}
	}
	arena := make([]bitset.Run, 0, b.nruns)
	for id, elems := range p.elems {
		start := len(arena)
		arena = bitset.AppendRuns(arena, elems)
		p.runs[id] = arena[start:len(arena):len(arena)]
	}
	return p
}

// BuildPlan records one full pass of s (Reset + drain) and returns the
// plan. budget <= 0 means unlimited; a blown budget returns ErrPlanBudget.
// A stream failure or short pass surfaces as an error — a plan is only ever
// a complete, validated recording.
func BuildPlan(s Stream, budget int64) (*Plan, error) {
	b := newPlanBuilder(s.Universe(), s.Len(), stableItems(s), budget)
	s.Reset()
	for {
		it, ok := s.Next()
		if !ok {
			break
		}
		if err := b.record(it); err != nil {
			return nil, err
		}
	}
	if err := PassErr(s); err != nil {
		return nil, err
	}
	if b.count != b.m {
		return nil, fmt.Errorf("stream: replay plan: recorded %d of %d sets", b.count, b.m)
	}
	return b.finalize(), nil
}

// ReplayStream drives a source stream for arrival order only — each Next
// consumes the source item just for its ID and serves the recorded payload
// (elements + prebuilt runs) from the plan. This is the universally correct
// replay mode: the ID→elements mapping is fixed across passes even when the
// arrival permutation is not (RandomEachPass draws a fresh shuffle from the
// source's RNG on every Reset, exactly as an honest re-stream would).
type ReplayStream struct {
	src  Stream
	plan *Plan
}

// Replay wraps src so every item's payload is served from the plan. The
// plan must have been recorded from a stream over the same instance.
func Replay(src Stream, plan *Plan) *ReplayStream {
	return &ReplayStream{src: src, plan: plan}
}

// Universe implements Stream.
func (rs *ReplayStream) Universe() int { return rs.src.Universe() }

// Len implements Stream.
func (rs *ReplayStream) Len() int { return rs.src.Len() }

// Reset implements Stream: the source still starts its pass (advancing its
// permutation RNG when the order demands it).
func (rs *ReplayStream) Reset() { rs.src.Reset() }

// Next implements Stream.
func (rs *ReplayStream) Next() (Item, bool) {
	it, ok := rs.src.Next()
	if !ok {
		return Item{}, false
	}
	if id := it.ID; id >= 0 && id < rs.plan.m {
		return rs.plan.Item(id), true
	}
	return it, true
}

// StableItems implements Stable: plan-backed views are immutable for the
// life of the plan.
func (rs *ReplayStream) StableItems() bool { return true }

// Err implements Failer, forwarding the source's error.
func (rs *ReplayStream) Err() error { return PassErr(rs.src) }

// ReplayedPass implements PassReplayer: every pass of a ReplayStream serves
// its payloads from the plan.
func (rs *ReplayStream) ReplayedPass() bool { return true }
