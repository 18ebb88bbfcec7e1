package service

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/registry"
	"streamcover/internal/setsystem"
)

// newObsEnv is newHTTPEnv with the full observability plane wired in: one
// obs registry shared by the HTTP layer, the scheduler and the instance
// registry, exposed at GET /metrics.
func newObsEnv(t *testing.T, rcfg registry.Config, scfg Config) (*httptest.Server, *registry.Registry, *Scheduler) {
	t.Helper()
	m := obs.NewRegistry()
	reg := registry.New(rcfg)
	reg.RegisterMetrics(m)
	scfg.Metrics = m
	sched := NewScheduler(reg, scfg)
	srv := httptest.NewServer(NewServer(reg, sched, 0, WithMetrics(m)))
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})
	return srv, reg, sched
}

// scrape fetches /metrics and returns the parsed sample values keyed by the
// full series line prefix (name plus rendered labels).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed metrics value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndToEnd drives one solve through the HTTP API and asserts the
// exposition covers every instrument family of the plane — http, scheduler,
// solve-pass and registry — with values that moved.
func TestMetricsEndToEnd(t *testing.T) {
	srv, reg, _ := newObsEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(setsystem.FromSets(8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	job := decode[Job](t, postJSON(t, srv.URL+"/v1/solve?wait=1",
		SolveRequest{Instance: hash, Algo: "setcover", Alpha: 2}), http.StatusOK)
	if job.Status != StatusDone {
		t.Fatalf("solve finished %s", job.Status)
	}

	vals := scrape(t, srv.URL)
	wantPositive := []string{
		`coverd_http_requests_total{route="POST /v1/solve",code="200"}`,
		`coverd_http_request_duration_seconds_count{route="POST /v1/solve"}`,
		`coverd_jobs_submitted_total`,
		`coverd_jobs_completed_total{status="done"}`,
		`coverd_job_duration_seconds_count`,
		`coverd_solve_pass_duration_seconds_count`,
		`coverd_registry_instances`,
		`coverd_registry_resident_bytes`,
	}
	for _, series := range wantPositive {
		if vals[series] <= 0 {
			t.Errorf("%s = %v, want > 0", series, vals[series])
		}
	}
	if got := vals[`coverd_jobs_running`]; got != 0 {
		t.Errorf("coverd_jobs_running = %v after the solve finished", got)
	}
	if job.Result == nil || vals[`coverd_solve_pass_duration_seconds_count`] != float64(job.Result.Passes) {
		t.Errorf("coverd_solve_pass_duration_seconds_count = %v, job ran %+v",
			vals[`coverd_solve_pass_duration_seconds_count`], job.Result)
	}

	// A second scrape must still include the http family and count itself.
	before := vals[`coverd_http_requests_total{route="GET /metrics",code="200"}`]
	after := scrape(t, srv.URL)[`coverd_http_requests_total{route="GET /metrics",code="200"}`]
	if after != before+1 {
		t.Errorf("GET /metrics self-count %v -> %v, want +1", before, after)
	}
}

// TestMetricsCacheHit pins the result-cache instrumentation: an identical
// resubmission is a hit, the first submission a miss.
func TestMetricsCacheHit(t *testing.T) {
	srv, reg, _ := newObsEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(setsystem.FromSets(8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Instance: hash, Algo: "setcover", Alpha: 2}
	decode[Job](t, postJSON(t, srv.URL+"/v1/solve?wait=1", req), http.StatusOK)
	decode[Job](t, postJSON(t, srv.URL+"/v1/solve?wait=1", req), http.StatusOK)
	vals := scrape(t, srv.URL)
	if vals[`coverd_result_cache_misses_total`] != 1 || vals[`coverd_result_cache_hits_total`] != 1 {
		t.Fatalf("cache counters: misses=%v hits=%v, want 1/1",
			vals[`coverd_result_cache_misses_total`], vals[`coverd_result_cache_hits_total`])
	}
}

// TestHealthzDegradedRegistryBudget pins readiness: a registry within 5% of
// its byte budget turns /v1/healthz into a 503 "degraded" with a reason.
func TestHealthzDegradedRegistryBudget(t *testing.T) {
	inst := setsystem.FromSets(16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	size := setsystem.SizeBytes(inst)
	srv, reg, _ := newHTTPEnv(t, registry.Config{BudgetBytes: size}, Config{Slots: 1})
	if _, _, err := reg.Put(inst); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[HealthResponse](t, resp, http.StatusServiceUnavailable)
	if health.Status != "degraded" || len(health.Reasons) == 0 {
		t.Fatalf("healthz = %+v, want degraded with reasons", health)
	}
	if !strings.Contains(strings.Join(health.Reasons, "; "), "budget") {
		t.Fatalf("reasons %v do not mention the byte budget", health.Reasons)
	}
}

// TestHealthzDegradedQueueSaturated pins the other readiness condition: a
// full job queue degrades the probe, and draining it restores "ok".
func TestHealthzDegradedQueueSaturated(t *testing.T) {
	srv, reg, sched := newHTTPEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1, QueueDepth: 1})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	slow := slowReq(hash, 41)
	slow.Lambda = 1.001
	running := decode[Job](t, postJSON(t, srv.URL+"/v1/solve", slow), http.StatusAccepted)
	waitStatus(t, sched, running.ID, StatusRunning, 5*time.Second)
	slow.Seed = 42
	queued := decode[Job](t, postJSON(t, srv.URL+"/v1/solve", slow), http.StatusAccepted)

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[HealthResponse](t, resp, http.StatusServiceUnavailable)
	if health.Status != "degraded" || len(health.Reasons) == 0 {
		t.Fatalf("healthz = %+v, want degraded while the queue is full", health)
	}
	if !strings.Contains(strings.Join(health.Reasons, "; "), "queue") {
		t.Fatalf("reasons %v do not mention the queue", health.Reasons)
	}

	for _, id := range []string{queued.ID, running.ID} {
		if err := sched.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Wait(t.Context(), id); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if health := decode[HealthResponse](t, resp, http.StatusOK); health.Status != "ok" {
		t.Fatalf("healthz after drain = %+v, want ok", health)
	}
}

// TestMetricsNotRegisteredWithoutOption pins the opt-in: a server built
// without WithMetrics has no /metrics route.
func TestMetricsNotRegisteredWithoutOption(t *testing.T) {
	srv, _, _ := newHTTPEnv(t, registry.Config{}, Config{Slots: 1})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without WithMetrics: %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExpositionParses sanity-checks the whole exposition against
// the text-format line grammar after real traffic.
func TestMetricsExpositionParses(t *testing.T) {
	srv, reg, _ := newObsEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(setsystem.FromSets(8, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}))
	if err != nil {
		t.Fatal(err)
	}
	decode[Job](t, postJSON(t, srv.URL+"/v1/solve?wait=1",
		SolveRequest{Instance: hash, Algo: "progressive", Lambda: 2}), http.StatusOK)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?(Inf|[0-9].*))$`)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
}
