package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/catalog"
	"streamcover/internal/registry"
	"streamcover/internal/setsystem"
)

// newHTTPEnv starts an httptest server over a fresh registry+scheduler.
func newHTTPEnv(t *testing.T, rcfg registry.Config, scfg Config) (*httptest.Server, *registry.Registry, *Scheduler) {
	t.Helper()
	reg := registry.New(rcfg)
	sched := NewScheduler(reg, scfg)
	srv := httptest.NewServer(NewServer(reg, sched, 0))
	t.Cleanup(func() {
		srv.Close()
		sched.Stop()
	})
	return srv, reg, sched
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, wantCode, raw)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return v
}

func upload(t *testing.T, base string, inst *setsystem.Instance, wantCode int) UploadResponse {
	t.Helper()
	var buf bytes.Buffer
	if err := setsystem.WriteBinary(&buf, inst); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/instances", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return decode[UploadResponse](t, resp, wantCode)
}

// TestWireDeterminism is the ISSUE acceptance criterion: for a fixed seed a
// solve through the service returns bit-identical cover, passes and space
// to the in-process SolveSetCover call.
func TestWireDeterminism(t *testing.T) {
	srv, _, _ := newHTTPEnv(t, registry.Config{}, Config{Slots: 2})
	inst, _ := streamcover.GeneratePlanted(1, 2048, 300, 4)

	up := upload(t, srv.URL, inst, http.StatusCreated)
	if up.Hash != setsystem.Hash(inst) {
		t.Fatalf("upload hash %s differs from local hash", up.Hash)
	}
	if up.N != inst.N || up.M != inst.M() {
		t.Fatalf("upload reported n=%d m=%d, want %d/%d", up.N, up.M, inst.N, inst.M())
	}

	for _, seed := range []uint64{1, 42, 1 << 40} {
		req := SolveRequest{Instance: up.Hash, Alpha: 3, Seed: seed, Wait: true}
		job := decode[Job](t, postJSON(t, srv.URL+"/v1/solve", req), http.StatusOK)
		if job.Status != StatusDone {
			t.Fatalf("seed %d: job %s (%s)", seed, job.Status, job.Error)
		}
		want, err := streamcover.SolveSetCover(inst,
			streamcover.WithAlpha(3), streamcover.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		got := job.Result
		if !reflect.DeepEqual(got.Cover, want.Cover) {
			t.Fatalf("seed %d: wire cover %v != local %v", seed, got.Cover, want.Cover)
		}
		if got.Guess != want.Guess || got.Passes != want.Passes || got.SpaceWords != want.SpaceWords {
			t.Fatalf("seed %d: wire accounting (g=%d p=%d w=%d) != local (g=%d p=%d w=%d)",
				seed, got.Guess, got.Passes, got.SpaceWords, want.Guess, want.Passes, want.SpaceWords)
		}
	}
}

func TestUploadDedupAndTextCodec(t *testing.T) {
	srv, _, _ := newHTTPEnv(t, registry.Config{}, Config{Slots: 1})
	inst, _ := streamcover.GeneratePlanted(5, 512, 64, 3)

	first := upload(t, srv.URL, inst, http.StatusCreated)
	if !first.Added {
		t.Fatalf("first upload not Added")
	}
	second := upload(t, srv.URL, inst, http.StatusOK)
	if second.Added || second.Hash != first.Hash {
		t.Fatalf("re-upload: added=%v hash=%s, want dedup to %s", second.Added, second.Hash, first.Hash)
	}
	// The text codec hashes identically to the binary upload.
	var buf bytes.Buffer
	if err := setsystem.Write(&buf, inst); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/instances", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	third := decode[UploadResponse](t, resp, http.StatusOK)
	if third.Added || third.Hash != first.Hash {
		t.Fatalf("text upload: added=%v hash=%s, want dedup to %s", third.Added, third.Hash, first.Hash)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	srv, reg, _ := newHTTPEnv(t, registry.Config{}, Config{Slots: 1})
	hash, _, err := reg.Put(smallInst(6))
	if err != nil {
		t.Fatal(err)
	}

	// Garbage upload: 400.
	resp, err := http.Post(srv.URL+"/v1/instances", "text/plain", strings.NewReader("not an instance"))
	if err != nil {
		t.Fatal(err)
	}
	e := decode[ErrorResponse](t, resp, http.StatusBadRequest)
	if e.Error == "" {
		t.Fatal("empty error body")
	}

	// Unknown algo: 400 with the valid choices listed.
	e = decode[ErrorResponse](t, postJSON(t, srv.URL+"/v1/solve",
		SolveRequest{Instance: hash, Algo: "quantum"}), http.StatusBadRequest)
	for _, algo := range catalog.Algos {
		if !strings.Contains(e.Error, algo) {
			t.Fatalf("error %q does not list valid algo %q", e.Error, algo)
		}
	}

	// Unknown instance hash: 404.
	decode[ErrorResponse](t, postJSON(t, srv.URL+"/v1/solve",
		SolveRequest{Instance: "ffff"}), http.StatusNotFound)

	// Unknown job: 404.
	resp, err = http.Get(srv.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	decode[ErrorResponse](t, resp, http.StatusNotFound)

	// Unknown request field: 400 (DisallowUnknownFields).
	resp, err = http.Post(srv.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"instance":"`+hash+`","alfa":3}`))
	if err != nil {
		t.Fatal(err)
	}
	decode[ErrorResponse](t, resp, http.StatusBadRequest)

	// wait must be parsed as a boolean: ?wait=false is an async submit
	// (202), not a block; garbage is a 400.
	resp = postJSON(t, srv.URL+"/v1/solve?wait=false", SolveRequest{Instance: hash})
	job := decode[Job](t, resp, http.StatusAccepted)
	if job.ID == "" {
		t.Fatalf("wait=false submit returned no job: %+v", job)
	}
	resp = postJSON(t, srv.URL+"/v1/solve?wait=yes-please", SolveRequest{Instance: hash})
	decode[ErrorResponse](t, resp, http.StatusBadRequest)
}

func TestHealthAndStats(t *testing.T) {
	srv, reg, sched := newHTTPEnv(t, registry.Config{}, Config{Slots: 1})
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[HealthResponse](t, resp, http.StatusOK)
	if h.Status != "ok" {
		t.Fatalf("health %q", h.Status)
	}

	hash, _, err := reg.Put(smallInst(7))
	if err != nil {
		t.Fatal(err)
	}
	job, err := sched.Submit(SolveRequest{Instance: hash})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Wait(t.Context(), job.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatsResponse](t, resp, http.StatusOK)
	if st.Scheduler.Submitted != 1 || st.Scheduler.Completed != 1 {
		t.Fatalf("scheduler stats %+v", st.Scheduler)
	}
	if st.Registry.Instances != 1 || len(st.Instances) != 1 || st.Instances[0].Hash != hash {
		t.Fatalf("registry stats %+v / %+v", st.Registry, st.Instances)
	}
	// The resident-bytes split is part of the wire contract: an uploaded
	// (heap-decoded) instance is all heap plus the replay plan built lazily
	// by its first solve, no mapped bytes.
	if st.Registry.HeapBytes+st.Registry.PlanBytes != st.Registry.ResidentBytes || st.Registry.MappedBytes != 0 {
		t.Fatalf("heap/plan/mapped split off for a heap entry: %+v", st.Registry)
	}
	if st.Registry.PlanBytes <= 0 || st.Instances[0].PlanBytes != st.Registry.PlanBytes {
		t.Fatalf("first solve should have attached a replay plan: %+v / %+v", st.Registry, st.Instances)
	}
	if st.Instances[0].Backing != "heap" {
		t.Fatalf("instance backing = %q, want heap", st.Instances[0].Backing)
	}
	if st.Scheduler.PeakSpaceWords <= 0 {
		t.Fatalf("peak space words not tracked: %+v", st.Scheduler)
	}
}

func TestJobWatchStreamsNDJSON(t *testing.T) {
	srv, reg, _ := newHTTPEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	job := decode[Job](t, postJSON(t, srv.URL+"/v1/solve", slowReq(hash, 1)), http.StatusAccepted)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	var snaps []Job
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var snap Job
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		snaps = append(snaps, snap)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || !snaps[len(snaps)-1].Status.Terminal() {
		t.Fatalf("watch stream did not end terminal")
	}
	// Every line must bring news: a status change, or a grown pass trace.
	passesOf := func(j Job) int {
		if j.Trace == nil {
			return 0
		}
		return len(j.Trace.Passes)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Status == snaps[i-1].Status && passesOf(snaps[i]) == passesOf(snaps[i-1]) {
			t.Fatalf("watch emitted duplicate snapshot at line %d (status %s, %d passes)",
				i, snaps[i].Status, passesOf(snaps[i]))
		}
	}
	// The terminal snapshot carries the full per-pass trace of the solve.
	final := snaps[len(snaps)-1]
	if final.Trace == nil || len(final.Trace.Passes) != final.Result.Passes {
		t.Fatalf("terminal snapshot trace = %+v, want %d passes", final.Trace, final.Result.Passes)
	}
	for i, p := range final.Trace.Passes {
		if p.Pass != i || p.Items <= 0 || p.DurationSeconds < 0 {
			t.Fatalf("trace pass %d malformed: %+v", i, p)
		}
	}
}

func TestCancelViaHTTP(t *testing.T) {
	srv, reg, sched := newHTTPEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	job := decode[Job](t, postJSON(t, srv.URL+"/v1/solve", slowReq(hash, 2)), http.StatusAccepted)
	waitStatus(t, sched, job.ID, StatusRunning, 5*time.Second)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode[Job](t, resp, http.StatusOK)
	final, err := sched.Wait(t.Context(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("job finished %s, want canceled", final.Status)
	}
}

// TestWaitingClientDisconnectCancelsJob pins the request-context
// cancellation path: a wait=true solve whose client goes away must abort
// the job rather than keep burning its slot.
func TestWaitingClientDisconnectCancelsJob(t *testing.T) {
	srv, reg, sched := newHTTPEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	// Stretch the solve well past slowReq's usual length: the poll loop
	// below may observe StatusRunning tens of milliseconds late under
	// scheduler jitter, and the disconnect must still land while the job
	// has plenty of passes left (the happy path cancels almost at once, so
	// the test stays fast).
	solveReq := slowReq(hash, 3)
	solveReq.Lambda = 1.001
	body, err := json.Marshal(solveReq)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req.WithContext(ctx))
		done <- err
	}()
	// Let the job start, then hang up.
	var id string
	deadline := time.Now().Add(5 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		for _, j := range []string{"j1"} {
			if snap, err := sched.Job(j); err == nil && snap.Status == StatusRunning {
				id = j
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelReq()
	if err := <-done; err == nil {
		t.Fatal("expected the aborted request to error")
	}
	final, err := sched.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCanceled {
		t.Fatalf("job finished %s, want canceled after client disconnect", final.Status)
	}
}
