package trace

import (
	"context"
	"sync"
	"time"
)

// Defaults for NewTracer.
const (
	// DefaultCapacity is the number of completed traces the flight
	// recorder retains.
	DefaultCapacity = 64
	// DefaultMaxSpans bounds the spans recorded per trace; spans beyond it
	// still time correctly and keep the trace open, but their records are
	// dropped (counted in Recorded.Dropped) so one pathological request
	// cannot balloon the recorder.
	DefaultMaxSpans = 512
)

// SpanData is the immutable record of one ended span.
type SpanData struct {
	SpanID SpanID
	Parent SpanID // zero for a local root with no remote parent
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration is the span's wall time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Recorded is one completed trace as retained by the flight recorder:
// every ended span, in end order (children before parents).
type Recorded struct {
	TraceID TraceID
	Spans   []SpanData
	// Dropped counts spans elided by the per-trace MaxSpans bound.
	Dropped int
}

// Tracer is the flight recorder: it mints spans and retains the last
// Capacity completed traces in a fixed ring buffer. A nil *Tracer is valid
// and records nothing. All methods are safe for concurrent use.
type Tracer struct {
	maxSpans int

	mu    sync.Mutex
	ring  []Recorded // fixed capacity, circular
	next  int        // ring index the next commit overwrites
	count uint64     // total traces committed
}

// NewTracer returns a flight recorder retaining the last capacity traces
// (DefaultCapacity when <= 0), each bounded to maxSpans recorded spans
// (DefaultMaxSpans when <= 0).
func NewTracer(capacity, maxSpans int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{ring: make([]Recorded, 0, capacity), maxSpans: maxSpans}
}

// active accumulates one in-flight trace: ended spans plus a refcount of
// still-open ones. When the count reaches zero the trace commits to the
// recorder ring — so a trace whose job outlives its HTTP request commits
// when the job's last span ends, not when the response goes out.
type active struct {
	tr      *Tracer
	traceID TraceID

	mu        sync.Mutex
	open      int
	spans     []SpanData
	dropped   int
	committed bool
}

// StartRoot starts the root span of a new trace. With a valid remote
// context (an extracted traceparent) the new trace adopts the remote trace
// ID, parents the root under the remote span and preserves the sampled
// flag; otherwise fresh IDs are minted with sampled set. The returned
// context carries the span for StartSpan. A nil *Tracer returns (ctx, nil).
func (tr *Tracer) StartRoot(ctx context.Context, name string, remote SpanContext) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	traceID, parent, sampled := NewTraceID(), SpanID{}, true
	if remote.Valid() {
		traceID, parent, sampled = remote.TraceID, remote.SpanID, remote.Sampled
	}
	a := &active{tr: tr, traceID: traceID}
	sp := a.start(name, parent, sampled)
	return ContextWithSpan(ctx, sp), sp
}

// start allocates a live span and bumps the open count. Spans started
// after the trace committed (a child outliving an already-committed trace
// is a caller bug, but must not corrupt the ring) are still returned live;
// their records are dropped at finish.
func (a *active) start(name string, parent SpanID, sampled bool) *Span {
	sp := &Span{
		t: a,
		sc: SpanContext{
			TraceID: a.traceID,
			SpanID:  NewSpanID(),
			Sampled: sampled,
		},
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	a.mu.Lock()
	a.open++
	a.mu.Unlock()
	return sp
}

// finish records an ended span and commits the trace when it was the last
// open one.
func (a *active) finish(sp *Span, end time.Time) {
	a.mu.Lock()
	if sp.ended {
		a.mu.Unlock()
		return
	}
	sp.ended = true
	if a.committed || len(a.spans) >= a.tr.maxSpans {
		a.dropped++
	} else {
		a.spans = append(a.spans, SpanData{
			SpanID: sp.sc.SpanID,
			Parent: sp.parent,
			Name:   sp.name,
			Start:  sp.start,
			End:    end,
			Attrs:  sp.attrs,
		})
	}
	a.open--
	commit := a.open == 0 && !a.committed
	if commit {
		a.committed = true
	}
	spans, dropped := a.spans, a.dropped
	a.mu.Unlock()
	if commit {
		a.tr.commit(Recorded{TraceID: a.traceID, Spans: spans, Dropped: dropped})
	}
}

// commit installs one completed trace in the ring, overwriting the oldest.
// Requests propagating the same trace ID are one distributed trace (a
// client that uploads, solves and polls under one traceparent), so a commit
// whose ID is already retained merges into the existing entry instead of
// occupying a second slot — Lookup then returns the whole tree.
func (tr *Tracer) commit(rec Recorded) {
	tr.mu.Lock()
	for i := range tr.ring {
		if tr.ring[i].TraceID == rec.TraceID {
			tr.ring[i].Spans = append(tr.ring[i].Spans, rec.Spans...)
			tr.ring[i].Dropped += rec.Dropped
			tr.mu.Unlock()
			return
		}
	}
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, rec)
	} else {
		tr.ring[tr.next] = rec
		tr.next = (tr.next + 1) % cap(tr.ring)
	}
	tr.count++
	tr.mu.Unlock()
}

// Recent returns up to n completed traces, newest first (all retained
// traces when n <= 0). Nil tracers return nil.
func (tr *Tracer) Recent(n int) []Recorded {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	total := len(tr.ring)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Recorded, 0, n)
	for i := 0; i < n; i++ {
		// Newest is the slot just before next (once the ring has wrapped,
		// next points at the oldest).
		idx := (tr.next - 1 - i + 2*total) % total
		if len(tr.ring) < cap(tr.ring) {
			idx = total - 1 - i
		}
		out = append(out, tr.ring[idx])
	}
	return out
}

// Lookup returns the retained trace with the given ID.
func (tr *Tracer) Lookup(id TraceID) (Recorded, bool) {
	if tr == nil {
		return Recorded{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.ring {
		if tr.ring[i].TraceID == id {
			return tr.ring[i], true
		}
	}
	return Recorded{}, false
}

// Count returns the total number of traces committed since creation
// (including ones the ring has since evicted).
func (tr *Tracer) Count() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.count
}
