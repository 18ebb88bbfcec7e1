package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/registry"
)

// syncBuffer is a goroutine-safe log sink: the access log writes from the
// server goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes every JSON log line written so far.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// newTracedEnv starts a fully instrumented server: tracing, metrics, access
// log into buf, lifecycle logs into the same buffer.
func newTracedEnv(t *testing.T, buf *syncBuffer) (*httptest.Server, *Server, *trace.Tracer) {
	t.Helper()
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	reg := registry.New(registry.Config{})
	sched := NewScheduler(reg, Config{Slots: 1, Logger: logger})
	tracer := trace.NewTracer(8, 0)
	h := NewServer(reg, sched, 0,
		WithTracing(tracer), WithMetrics(obs.NewRegistry()),
		WithAccessLog(), WithLogger(logger))
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})
	return srv, h, tracer
}

// waitTrace polls the flight recorder for a trace: the root span ends after
// the response bytes reach the client, so the commit races the test.
func waitTrace(t *testing.T, tracer *trace.Tracer, id trace.TraceID) trace.Recorded {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := tracer.Lookup(id); ok {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("trace %s never committed", id)
	return trace.Recorded{}
}

func spanByName(rec trace.Recorded, name string) (trace.SpanData, bool) {
	for _, s := range rec.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return trace.SpanData{}, false
}

// TestTracePropagationEndToEnd pins the acceptance criterion: a
// client-supplied traceparent yields a server-side trace whose span tree
// contains the admission, queue, pin, plan and solve spans, the job
// snapshot carries one trace entry per solve pass, and the same trace ID
// appears in the X-Request-Id header, the job snapshot, the access log and
// the lifecycle log.
func TestTracePropagationEndToEnd(t *testing.T) {
	var buf syncBuffer
	srv, _, tracer := newTracedEnv(t, &buf)
	inst, _ := streamcover.GeneratePlanted(7, 1024, 128, 3)
	up := upload(t, srv.URL, inst, http.StatusCreated)

	const (
		traceIDHex = "0123456789abcdef0123456789abcdef"
		parentHex  = "00f067aa0ba902b7"
	)
	tp := "00-" + traceIDHex + "-" + parentHex + "-01"

	body, _ := json.Marshal(SolveRequest{Instance: up.Hash, Wait: true})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceIDHex {
		t.Fatalf("X-Request-Id = %q, want the propagated trace id %q", got, traceIDHex)
	}
	job := decode[Job](t, resp, http.StatusOK)
	if job.Status != StatusDone {
		t.Fatalf("job %s (%s)", job.Status, job.Error)
	}
	if job.TraceID != traceIDHex {
		t.Fatalf("job snapshot trace_id = %q, want %q", job.TraceID, traceIDHex)
	}

	id, err := trace.ParseRequestID(traceIDHex)
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTrace(t, tracer, id)

	root, ok := spanByName(rec, "HTTP POST /v1/solve")
	if !ok {
		t.Fatalf("no HTTP root span in %v", spanNames(rec))
	}
	if root.Parent.String() != parentHex {
		t.Fatalf("root parented under %s, want the client span %s", root.Parent, parentHex)
	}
	for _, name := range []string{"admission", "pin", "cache", "queue", "job", "solve", "plan"} {
		if _, ok := spanByName(rec, name); !ok {
			t.Fatalf("span %q missing from trace %v", name, spanNames(rec))
		}
	}
	// The passes travel once, in the job's trace.
	if job.Trace == nil || len(job.Trace.Passes) != job.Result.Passes {
		t.Fatalf("job trace = %+v, want one entry per solve pass (%d)", job.Trace, job.Result.Passes)
	}

	// One grep pivots across planes: the access log line and the job
	// lifecycle lines all carry the propagated trace ID.
	var sawAccess, sawLifecycle bool
	for _, line := range buf.logLines(t) {
		if line["trace_id"] != traceIDHex {
			continue
		}
		switch line["msg"] {
		case "request":
			sawAccess = true
			if line["request_id"] != traceIDHex {
				t.Fatalf("access log request_id = %v, want %q", line["request_id"], traceIDHex)
			}
			if line["span_id"] != root.SpanID.String() {
				t.Fatalf("access log span_id = %v, want root %s", line["span_id"], root.SpanID)
			}
		case "job finished":
			sawLifecycle = true
		}
	}
	if !sawAccess || !sawLifecycle {
		t.Fatalf("trace id missing from logs (access=%t lifecycle=%t):\n%s", sawAccess, sawLifecycle, buf.String())
	}
}

func spanNames(rec trace.Recorded) []string {
	names := make([]string, len(rec.Spans))
	for i, s := range rec.Spans {
		names[i] = s.Name
	}
	return names
}

// TestTraceAsyncSubmit pins the flight recorder's refcount commit: on an
// async submit the HTTP request returns while the job still runs, and the
// trace must stay open — committing with the job's solve spans — until the
// job's last span ends.
func TestTraceAsyncSubmit(t *testing.T) {
	var buf syncBuffer
	srv, _, tracer := newTracedEnv(t, &buf)
	inst, _ := streamcover.GeneratePlanted(9, 1024, 128, 3)
	up := upload(t, srv.URL, inst, http.StatusCreated)

	sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	body, _ := json.Marshal(SolveRequest{Instance: up.Hash, Seed: 3})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", sc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	job := decode[Job](t, resp, http.StatusAccepted)
	if job.TraceID != sc.TraceID.String() {
		t.Fatalf("job snapshot trace_id = %q, want %q", job.TraceID, sc.TraceID)
	}

	rec := waitTrace(t, tracer, sc.TraceID)
	for _, name := range []string{"HTTP POST /v1/solve", "job", "queue", "solve"} {
		if _, ok := spanByName(rec, name); !ok {
			t.Fatalf("span %q missing from async trace %v", name, spanNames(rec))
		}
	}
}

// TestTraceEndpoint covers GET /v1/traces/{id}: the wire span tree nests
// children under parents, bad IDs are 400, unknown ones 404.
func TestTraceEndpoint(t *testing.T) {
	var buf syncBuffer
	srv, _, tracer := newTracedEnv(t, &buf)

	sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", sc.Traceparent())
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitTrace(t, tracer, sc.TraceID)

	resp, err := http.Get(srv.URL + "/v1/traces/" + sc.TraceID.String())
	if err != nil {
		t.Fatal(err)
	}
	wire := decode[RecordedTrace](t, resp, http.StatusOK)
	if wire.TraceID != sc.TraceID.String() {
		t.Fatalf("wire trace id %q, want %q", wire.TraceID, sc.TraceID)
	}
	if len(wire.Spans) != 1 || wire.Spans[0].Name != "HTTP GET /v1/healthz" {
		t.Fatalf("wire roots = %+v, want the single HTTP root", wire.Spans)
	}
	if wire.Spans[0].Parent != sc.SpanID.String() {
		t.Fatalf("wire root parent %q, want %q", wire.Spans[0].Parent, sc.SpanID)
	}

	resp, err = http.Get(srv.URL + "/v1/traces/not-a-trace-id")
	if err != nil {
		t.Fatal(err)
	}
	decode[ErrorResponse](t, resp, http.StatusBadRequest)
	resp, err = http.Get(srv.URL + "/v1/traces/" + trace.NewTraceID().String())
	if err != nil {
		t.Fatal(err)
	}
	decode[ErrorResponse](t, resp, http.StatusNotFound)
}

// TestRequestIDFallback: without a traceparent (and even without tracing),
// the middleware mints a request ID, echoes it in X-Request-Id and stamps
// the access log line with it.
func TestRequestIDFallback(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	reg := registry.New(registry.Config{})
	sched := NewScheduler(reg, Config{Slots: 1})
	srv := httptest.NewServer(NewServer(reg, sched, 0, WithAccessLog(), WithLogger(logger)))
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(got) {
		t.Fatalf("fallback X-Request-Id = %q, want 32 lowercase hex digits", got)
	}
	var found bool
	for _, line := range buf.logLines(t) {
		if line["msg"] != "request" {
			continue
		}
		found = true
		if line["request_id"] != got {
			t.Fatalf("access log request_id = %v, want header value %q", line["request_id"], got)
		}
		if _, ok := line["trace_id"]; ok {
			t.Fatalf("untraced request logged a trace_id: %v", line)
		}
	}
	if !found {
		t.Fatalf("no access log line:\n%s", buf.String())
	}
}

// TestDebugEndpoints covers RegisterDebug: /debug/traces lists recent
// traces and /debug/bundle packages stats + metrics + traces in one body.
func TestDebugEndpoints(t *testing.T) {
	var buf syncBuffer
	srv, h, tracer := newTracedEnv(t, &buf)

	sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", sc.Traceparent())
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitTrace(t, tracer, sc.TraceID)

	dmux := http.NewServeMux()
	h.RegisterDebug(dmux)
	dsrv := httptest.NewServer(dmux)
	t.Cleanup(dsrv.Close)

	resp, err := http.Get(dsrv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traces := decode[TracesResponse](t, resp, http.StatusOK)
	var found bool
	for _, tr := range traces.Traces {
		if tr.TraceID == sc.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in /debug/traces", sc.TraceID)
	}

	resp, err = http.Get(dsrv.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	bundle := decode[DebugBundle](t, resp, http.StatusOK)
	if len(bundle.Traces) == 0 {
		t.Fatal("bundle has no traces")
	}
	if !strings.Contains(bundle.Metrics, "coverd_http_requests_total") {
		t.Fatalf("bundle metrics missing exposition:\n%.200s", bundle.Metrics)
	}
	if bundle.Stats.Scheduler.Slots == 0 {
		t.Fatalf("bundle stats empty: %+v", bundle.Stats)
	}

	resp, err = http.Get(dsrv.URL + "/debug/traces?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	decode[ErrorResponse](t, resp, http.StatusBadRequest)
}
