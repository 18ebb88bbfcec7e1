// Package trace is coverd's request-tracing plane: spans with W3C
// traceparent propagation and a fixed-size in-process flight recorder.
//
// # Design
//
// The package is dependency-free for the same reason internal/obs is: the
// quantities that matter here — where one slow request spent its time
// across queue wait, registry pin, plan build and the solve — are a
// handful of timestamps and small attribute sets per request, and they do
// not need an exporter pipeline. A solve's passes are not on any span: they
// travel once, in the job's pass trace (client.SolveTrace). Completed
// traces land in a bounded ring buffer (the flight recorder, see
// recorder.go) that retains the last N traces for postmortem inspection
// via coverd's debug endpoints; nothing is shipped anywhere.
//
// # Identity and propagation
//
// Identity follows the W3C Trace Context recommendation: a 16-byte trace
// ID names the whole request tree, an 8-byte span ID names one operation
// within it, and a sampled flag rides along. The wire form is the
// `traceparent` HTTP header (version 00); SpanContext.Traceparent and
// ParseTraceparent are exact inverses on valid input, which the fuzz
// harness pins. A client that sends a traceparent sees its trace ID in the
// server's access log, job record and recorded span tree; a request
// without one gets a server-generated root so every request is still
// correlatable.
//
// # The disabled path
//
// Tracing is designed to cost nothing when off. All entry points tolerate
// nil receivers: a nil *Tracer starts no spans, StartSpan without a parent
// span in the context returns a nil *Span, and every method on a nil *Span
// is an allocation-free no-op. Instrumented code therefore never branches
// on "is tracing on" — it calls the API unconditionally and the nil chain
// short-circuits. TestSpanDisabledPathAllocs pins the zero-allocation
// claim.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte identity of one request tree (W3C trace-id).
type TraceID [16]byte

// SpanID is the 8-byte identity of one span (W3C parent-id).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idState drives the process-wide ID generator: a splitmix64 sequence over
// an atomic counter, seeded once from crypto/rand so concurrent processes
// do not collide. Generation is one atomic add plus a few multiplies —
// cheap enough for the per-request path.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	// crypto/rand.Read never fails on supported platforms (it panics
	// internally if the kernel source is broken).
	cryptorand.Read(seed[:])
	idState.Store(binary.LittleEndian.Uint64(seed[:]))
}

// nextRand returns the next value of the splitmix64 sequence.
func nextRand() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.LittleEndian.PutUint64(t[:8], nextRand())
		binary.LittleEndian.PutUint64(t[8:], nextRand())
	}
	return t
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.LittleEndian.PutUint64(s[:], nextRand())
	}
	return s
}

// SpanContext is the propagated identity of a span: what crosses process
// boundaries in the traceparent header, and what ties logs, job records and
// recorded spans to one request.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero (the W3C validity rule).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span. Value is kept as `any` for
// JSON rendering but is always a string, integer or bool in practice (the
// typed Span setters enforce this).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation within a trace. Spans are created by
// Tracer.StartRoot (one per request) and StartSpan (children); End delivers
// the span to its trace's accumulator, and the trace commits to the flight
// recorder when its last open span ends. A nil *Span is a valid no-op.
//
// A span belongs to the goroutine that started it; the setters and End are
// nonetheless safe to call concurrently (they serialize on the owning
// trace's lock), because a job span is started by the submitting request
// and annotated and ended by the worker that runs the job.
type Span struct {
	t      *active
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	// Guarded by t.mu.
	attrs []Attr
	ended bool
}

// Context returns the span's propagated identity, or the zero SpanContext
// for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Recording reports whether the span is live and will be recorded; false
// for a nil span. Callers use it to skip attribute assembly that would
// allocate before hitting the nil no-op.
func (s *Span) Recording() bool { return s != nil }

// The typed setters check nil before constructing the Attr: boxing the
// value into `any` is itself an allocation, and it must not happen on the
// disabled (nil-span) path.

// SetAttr annotates the span with a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attach(Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, value int) {
	if s == nil {
		return
	}
	s.attach(Attr{Key: key, Value: value})
}

// SetInt64 annotates the span with a 64-bit integer attribute.
func (s *Span) SetInt64(key string, value int64) {
	if s == nil {
		return
	}
	s.attach(Attr{Key: key, Value: value})
}

// SetBool annotates the span with a boolean attribute.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	s.attach(Attr{Key: key, Value: value})
}

func (s *Span) attach(a Attr) {
	s.t.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, a)
	}
	s.t.mu.Unlock()
}

// End finishes the span and hands it to the flight recorder's per-trace
// accumulator. The trace commits to the ring once every one of its spans
// has ended — so spans that outlive the request (an async job) still land
// in the same recorded trace. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.finish(s, time.Now())
}

// spanKey is the context key under which the current span travels.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the current span, or nil when the context carries
// none (the disabled path).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan starts a child of the context's current span and returns a
// context carrying the child. Without a current span it returns (ctx, nil)
// — the nil chain that makes untraced requests free — so instrumented code
// calls it unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.t.start(name, parent.sc.SpanID, parent.sc.Sampled)
	return ContextWithSpan(ctx, child), child
}
