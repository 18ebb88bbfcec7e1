package trace

import (
	"context"
	"testing"
)

func TestNewIDsNonZeroAndDistinct(t *testing.T) {
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("zero ID minted")
		}
		if seenT[tid] || seenS[sid] {
			t.Fatal("duplicate ID minted within 1000 draws")
		}
		seenT[tid], seenS[sid] = true, true
	}
}

// find returns the recorded span with the given name, failing the test when
// absent.
func find(t *testing.T, rec Recorded, name string) SpanData {
	t.Helper()
	for _, s := range rec.Spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("trace %s has no span %q (have %d spans)", rec.TraceID, name, len(rec.Spans))
	return SpanData{}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := NewTracer(4, 0)
	ctx, root := tr.StartRoot(context.Background(), "request", SpanContext{})
	if root == nil {
		t.Fatal("StartRoot returned nil span on a live tracer")
	}
	root.SetAttr("route", "POST /v1/solve")
	ctx2, child := StartSpan(ctx, "solve")
	child.SetInt("alpha", 3)
	_, grand := StartSpan(ctx2, "pin")
	grand.End()
	child.End()

	if _, ok := tr.Lookup(root.Context().TraceID); ok {
		t.Fatal("trace committed while the root span is still open")
	}
	root.End()

	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not retained after the last span ended")
	}
	if len(rec.Spans) != 3 || rec.Dropped != 0 {
		t.Fatalf("got %d spans (%d dropped), want 3 (0)", len(rec.Spans), rec.Dropped)
	}
	rootRec := find(t, rec, "request")
	solveRec := find(t, rec, "solve")
	pinRec := find(t, rec, "pin")
	if !rootRec.Parent.IsZero() {
		t.Fatalf("root parent = %s, want zero", rootRec.Parent)
	}
	if solveRec.Parent != rootRec.SpanID {
		t.Fatalf("solve parent = %s, want root %s", solveRec.Parent, rootRec.SpanID)
	}
	if pinRec.Parent != solveRec.SpanID {
		t.Fatalf("pin parent = %s, want solve %s", pinRec.Parent, solveRec.SpanID)
	}
	if len(solveRec.Attrs) != 1 || solveRec.Attrs[0] != (Attr{Key: "alpha", Value: 3}) {
		t.Fatalf("solve attrs = %+v, want alpha=3", solveRec.Attrs)
	}
	if len(rootRec.Attrs) != 1 || rootRec.Attrs[0].Key != "route" {
		t.Fatalf("root attrs = %+v", rootRec.Attrs)
	}
	if rootRec.End.Before(rootRec.Start) {
		t.Fatal("root span ends before it starts")
	}
}

func TestTracerRemoteParent(t *testing.T) {
	tr := NewTracer(4, 0)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	_, root := tr.StartRoot(context.Background(), "request", remote)
	if got := root.Context().TraceID; got != remote.TraceID {
		t.Fatalf("root trace ID %s, want remote %s", got, remote.TraceID)
	}
	if root.Context().SpanID == remote.SpanID {
		t.Fatal("root reused the remote span ID instead of minting its own")
	}
	root.End()
	rec, ok := tr.Lookup(remote.TraceID)
	if !ok {
		t.Fatal("remote-parented trace not retained")
	}
	if rec.Spans[0].Parent != remote.SpanID {
		t.Fatalf("root parent = %s, want the remote span %s", rec.Spans[0].Parent, remote.SpanID)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2, 0)
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), "r", SpanContext{})
		ids = append(ids, root.Context().TraceID)
		root.End()
	}
	if tr.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tr.Count())
	}
	if _, ok := tr.Lookup(ids[0]); ok {
		t.Fatal("oldest trace survived past the ring capacity")
	}
	recent := tr.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("Recent(0) = %d traces, want 2", len(recent))
	}
	if recent[0].TraceID != ids[2] || recent[1].TraceID != ids[1] {
		t.Fatalf("Recent order wrong: got %s,%s want %s,%s",
			recent[0].TraceID, recent[1].TraceID, ids[2], ids[1])
	}
	if got := tr.Recent(1); len(got) != 1 || got[0].TraceID != ids[2] {
		t.Fatalf("Recent(1) = %+v, want just the newest", got)
	}
}

func TestTracerMaxSpansBound(t *testing.T) {
	tr := NewTracer(2, 2)
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{})
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok {
		t.Fatal("bounded trace not retained")
	}
	if len(rec.Spans) != 2 || rec.Dropped != 2 {
		t.Fatalf("got %d spans, %d dropped; want 2 and 2", len(rec.Spans), rec.Dropped)
	}
}

// TestAsyncCommit pins the refcount contract: a trace whose child span
// outlives the root (an async job outliving its HTTP request) commits only
// when the last span ends, with every span present.
func TestAsyncCommit(t *testing.T) {
	tr := NewTracer(4, 0)
	ctx, root := tr.StartRoot(context.Background(), "request", SpanContext{})
	_, jobSpan := StartSpan(ctx, "job")
	root.End() // response went out; job still running
	if _, ok := tr.Lookup(root.Context().TraceID); ok {
		t.Fatal("trace committed while the job span is open")
	}
	jobSpan.End()
	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not committed after the job span ended")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want root + job", len(rec.Spans))
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(4, 0)
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{})
	_, sp := StartSpan(ctx, "child")
	sp.End()
	sp.End() // must not double-decrement and commit early
	if _, ok := tr.Lookup(root.Context().TraceID); ok {
		t.Fatal("double End committed the trace under the open root")
	}
	root.End()
	rec, _ := tr.Lookup(root.Context().TraceID)
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	// Mutations after End must not land.
	sp.SetAttr("late", "x")
	rec, _ = tr.Lookup(root.Context().TraceID)
	if got := find(t, rec, "child"); len(got.Attrs) != 0 {
		t.Fatalf("post-End mutations recorded: %+v", got)
	}
}

// TestSpanDisabledPathAllocs pins the tracing-disabled hot path at zero
// allocations: starting, annotating and ending spans under a context with
// no current span (what every instrumented call site sees when coverd runs
// with tracing off) must not allocate.
func TestSpanDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "admission")
		sp.SetAttr("k", "v")
		sp.SetInt("n", 42)
		sp.SetBool("b", true)
		sp.End()
		_, sp2 := StartSpan(c, "child")
		sp2.End()
		_ = sp.Context()
	}); n != 0 {
		t.Fatalf("disabled span path allocates %v per run, want 0", n)
	}
	var nilTracer *Tracer
	if n := testing.AllocsPerRun(100, func() {
		c, sp := nilTracer.StartRoot(ctx, "request", SpanContext{})
		sp.End()
		_ = c
		_ = nilTracer.Recent(4)
		_, _ = nilTracer.Lookup(TraceID{})
	}); n != 0 {
		t.Fatalf("nil tracer path allocates %v per run, want 0", n)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(8, 0)
	ctx, root := tr.StartRoot(context.Background(), "r", SpanContext{})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				_, sp := StartSpan(ctx, "w")
				sp.SetInt("j", j)
				sp.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	rec, ok := tr.Lookup(root.Context().TraceID)
	if !ok {
		t.Fatal("concurrent trace not committed")
	}
	if len(rec.Spans)+rec.Dropped != 8*50+1 {
		t.Fatalf("spans+dropped = %d, want %d", len(rec.Spans)+rec.Dropped, 8*50+1)
	}
}

// TestTracerMergesSameTraceID: separate requests propagating one
// traceparent are one distributed trace; their commits merge into a single
// retained entry so Lookup returns the whole tree.
func TestTracerMergesSameTraceID(t *testing.T) {
	tr := NewTracer(4, 0)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	_, up := tr.StartRoot(context.Background(), "upload", remote)
	up.End()
	_, solve := tr.StartRoot(context.Background(), "solve", remote)
	solve.End()

	rec, ok := tr.Lookup(remote.TraceID)
	if !ok {
		t.Fatal("merged trace not retained")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("merged trace has %d spans, want 2", len(rec.Spans))
	}
	if got := len(tr.Recent(0)); got != 1 {
		t.Fatalf("ring holds %d entries, want 1 merged entry", got)
	}
}
