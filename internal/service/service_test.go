package service

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/catalog"
	"streamcover/internal/registry"
	"streamcover/internal/setsystem"
)

// newEnv returns a registry+scheduler pair, stopping the scheduler at test
// end.
func newEnv(t *testing.T, rcfg registry.Config, scfg Config) (*registry.Registry, *Scheduler) {
	t.Helper()
	reg := registry.New(rcfg)
	sched := NewScheduler(reg, scfg)
	t.Cleanup(sched.Stop)
	return reg, sched
}

// smallInst returns a fast-to-solve planted instance; distinct seeds give
// distinct content hashes.
func smallInst(seed uint64) *setsystem.Instance {
	inst, _ := streamcover.GeneratePlanted(seed, 256, 64, 4)
	return inst
}

// slowInst is sized so a progressive solve with lambda just above 1 runs
// for hundreds of passes — long enough to observe running/queued states,
// quick enough (sub-second) to never stall the suite.
func slowInst() *setsystem.Instance {
	return streamcover.GenerateUniform(99, 2048, 256, 64, 256)
}

func slowReq(hash string, seed uint64) SolveRequest {
	return SolveRequest{Instance: hash, Algo: "progressive", Lambda: 1.01, Seed: seed}
}

func waitStatus(t *testing.T, s *Scheduler, id string, want JobStatus, within time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if j.Status == want {
			return j
		}
		if j.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s status %s, want %s", id, j.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSchedulerJobTableGC(t *testing.T) {
	const maxJobs = 8
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1, MaxJobs: maxJobs, QueueDepth: 64})
	hash, _, err := reg.Put(smallInst(30))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3*maxJobs; i++ {
		j, err := sched.Submit(SolveRequest{Instance: hash, Alpha: 2, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Wait(t.Context(), j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// The oldest terminal jobs are forgotten; the newest survive. (GC runs
	// on Submit, so up to maxJobs records remain afterwards.)
	if _, err := sched.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job still resolvable after GC: err=%v", err)
	}
	resolvable := 0
	for _, id := range ids {
		if _, err := sched.Job(id); err == nil {
			resolvable++
		}
	}
	if resolvable > maxJobs+1 {
		t.Fatalf("%d job records retained, want <= %d", resolvable, maxJobs+1)
	}
	if _, err := sched.Job(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job pruned: %v", err)
	}
}

func TestSchedulerNoCacheForcesFreshSolveButPopulates(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1})
	hash, _, err := reg.Put(smallInst(31))
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Instance: hash, Alpha: 2, Seed: 5, NoCache: true}
	j1, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := sched.Wait(t.Context(), j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A NoCache job still populates the cache...
	plain := req
	plain.NoCache = false
	j2, err := sched.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit || !reflect.DeepEqual(j2.Result, f1.Result) {
		t.Fatalf("cache not populated by NoCache job: hit=%v", j2.CacheHit)
	}
	// ...but a NoCache submit never reads it.
	j3, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j3.CacheHit {
		t.Fatalf("NoCache submit served from cache")
	}
	f3, err := sched.Wait(t.Context(), j3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3.Result, f1.Result) {
		t.Fatalf("fresh NoCache solve differs from cached: %+v vs %+v", f3.Result, f1.Result)
	}
}

func TestSchedulerResultCache(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1})
	hash, _, err := reg.Put(smallInst(2))
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Instance: hash, Alpha: 2, Seed: 7}
	j1, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := sched.Wait(t.Context(), j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status != StatusDone || !j2.CacheHit {
		t.Fatalf("second submit: status=%s cacheHit=%v, want immediate cached done", j2.Status, j2.CacheHit)
	}
	if !reflect.DeepEqual(j2.Result, f1.Result) {
		t.Fatalf("cached result differs: %+v vs %+v", j2.Result, f1.Result)
	}
	// A different seed is a different cache key.
	j3, err := sched.Submit(SolveRequest{Instance: hash, Alpha: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if j3.Status == StatusDone {
		t.Fatalf("different options must not hit the cache")
	}
	if _, err := sched.Wait(t.Context(), j3.ID); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.CacheHits != 1 || st.CacheSize != 2 {
		t.Fatalf("stats: hits=%d size=%d, want 1 hit / 2 entries", st.CacheHits, st.CacheSize)
	}
}

func TestSchedulerValidation(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1})
	hash, _, err := reg.Put(smallInst(3))
	if err != nil {
		t.Fatal(err)
	}
	var bad *BadRequestError
	cases := []SolveRequest{
		{Instance: hash, Algo: "quantum"},
		{Instance: hash, Order: "sorted"},
		{Instance: hash, Alpha: -1},
		{Instance: hash, Epsilon: 2},
		{Instance: hash, Algo: "maxcover"}, // missing k
		{},                                 // missing instance
		// Values the solvers would silently rewrite or drop.
		{Instance: hash, Algo: "progressive", Lambda: 0.5},
		{Instance: hash, Algo: "progressive", Lambda: -3},
		{Instance: hash, SampleConstant: -1},
		{Instance: hash, OptimumHint: -1},
	}
	for i, req := range cases {
		if _, err := sched.Submit(req); !errors.As(err, &bad) {
			t.Fatalf("case %d: err=%v, want BadRequestError", i, err)
		}
	}
	if _, err := sched.Submit(SolveRequest{Instance: "ffff"}); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("unknown instance: err=%v, want ErrNotFound", err)
	}
	if _, err := sched.Job("j999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: err=%v, want ErrUnknownJob", err)
	}
}

// TestReplayPlanBuiltOnlyWhenConsumed pins the lazy plan in catalog.Env:
// jobs whose solver takes no replay plan never build one, and the first
// setcover job does.
func TestReplayPlanBuiltOnlyWhenConsumed(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1})
	hash, _, err := reg.Put(smallInst(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range slices.Concat(catalog.Algos[1:], catalog.Algos[:1]) {
		job, err := sched.Submit(SolveRequest{Instance: hash, Algo: algo, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := sched.Wait(t.Context(), job.ID); err != nil || final.Status != StatusDone {
			t.Fatalf("%s: %v %+v", algo, err, final)
		}
		if built := reg.Stats().PlanBytes > 0; built != (algo == "setcover") {
			t.Fatalf("after a %s job: plan built = %v", algo, built)
		}
	}
}

func TestSchedulerQueueBoundsAndCancel(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1, QueueDepth: 1})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sched.Submit(slowReq(hash, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, sched, a.ID, StatusRunning, 5*time.Second)
	b, err := sched.Submit(slowReq(hash, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(slowReq(hash, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err=%v, want ErrQueueFull", err)
	}
	// Cancel the running job and the queued job; both must terminate as
	// canceled — the running one aborts mid-solve via its context.
	if err := sched.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := sched.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	fa, err := sched.Wait(t.Context(), a.ID)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := sched.Wait(t.Context(), b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Status != StatusCanceled || fb.Status != StatusCanceled {
		t.Fatalf("statuses %s/%s, want canceled/canceled", fa.Status, fb.Status)
	}
	if st := sched.Stats(); st.Canceled != 2 {
		t.Fatalf("stats.Canceled = %d, want 2", st.Canceled)
	}
}

// TestSchedulerUnderLoad is the ISSUE acceptance scenario: >= 64 concurrent
// solve jobs against a small worker budget. All jobs must terminate,
// concurrent execution must never exceed the slot cap, cancellation must
// abort jobs, and the registry must stay within its memory budget while
// evicting LRU instances.
func TestSchedulerUnderLoad(t *testing.T) {
	const (
		slots     = 3
		phases    = 6
		perPhase  = 11 // 66 jobs >= 64
		budgetFor = 3  // resident instances
	)
	one := setsystem.SizeBytes(smallInst(0))
	reg, sched := newEnv(t,
		registry.Config{BudgetBytes: budgetFor * one},
		Config{Slots: slots, JobWorkers: 1, QueueDepth: phases * perPhase})

	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	canceled := 0
	for phase := 0; phase < phases; phase++ {
		// Admit the phase's instance, waiting out transient ErrBudget while
		// earlier phases' pinned jobs drain.
		var hash string
		for {
			var err error
			hash, _, err = reg.Put(smallInst(uint64(100 + phase)))
			if err == nil {
				break
			}
			if !errors.Is(err, registry.ErrBudget) {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if st := reg.Stats(); st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("phase %d: resident %d exceeds budget %d", phase, st.ResidentBytes, st.BudgetBytes)
		}
		for i := 0; i < perPhase; i++ {
			seed := uint64(phase*perPhase + i + 1)
			// Submit inline so the job's registry pin exists before the next
			// phase's upload can evict this instance; wait concurrently.
			job, err := sched.Submit(SolveRequest{Instance: hash, Alpha: 2, Seed: seed})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			mu.Lock()
			ids = append(ids, job.ID)
			mu.Unlock()
			if i%5 == 4 {
				sched.Cancel(job.ID)
				canceled++
			}
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if _, err := sched.Wait(t.Context(), id); err != nil {
					t.Errorf("wait %s: %v", id, err)
				}
			}(job.ID)
		}
	}
	wg.Wait()

	if len(ids) != phases*perPhase {
		t.Fatalf("submitted %d jobs, want %d", len(ids), phases*perPhase)
	}
	doneJobs, canceledJobs := 0, 0
	for _, id := range ids {
		j, err := sched.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status.Terminal() {
			t.Fatalf("job %s not terminal: %s", id, j.Status)
		}
		switch j.Status {
		case StatusDone:
			doneJobs++
		case StatusCanceled:
			canceledJobs++
		default:
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
	}
	st := sched.Stats()
	if st.PeakRunning > slots {
		t.Fatalf("peak running %d exceeds the %d-slot cap", st.PeakRunning, slots)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained: running=%d queued=%d", st.Running, st.Queued)
	}
	if doneJobs == 0 {
		t.Fatalf("no job completed")
	}
	// Cancellation raced real execution: a job may finish before its cancel
	// lands, so canceled <= requested — but the scheduler must have
	// honored at least one (the load keeps slots busy, so queued cancels
	// are near-certain to land).
	if canceledJobs == 0 {
		t.Fatalf("no cancellation landed out of %d requested", canceled)
	}
	rst := reg.Stats()
	if rst.ResidentBytes > rst.BudgetBytes {
		t.Fatalf("registry over budget at end: %d > %d", rst.ResidentBytes, rst.BudgetBytes)
	}
	if rst.Evictions == 0 {
		t.Fatalf("no LRU evictions despite %d phases over a %d-instance budget", phases, budgetFor)
	}
	if rst.Instances > budgetFor {
		t.Fatalf("%d resident instances exceed the %d-instance budget", rst.Instances, budgetFor)
	}
}

func TestSchedulerStop(t *testing.T) {
	reg := registry.New(registry.Config{})
	sched := NewScheduler(reg, Config{Slots: 1, JobWorkers: 1, QueueDepth: 8})
	hash, _, err := reg.Put(slowInst())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sched.Submit(slowReq(hash, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Submit(slowReq(hash, 2))
	if err != nil {
		t.Fatal(err)
	}
	stopDone := make(chan struct{})
	go func() { sched.Stop(); close(stopDone) }()
	select {
	case <-stopDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	for _, id := range []string{a.ID, b.ID} {
		j, err := sched.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status.Terminal() {
			t.Fatalf("job %s left non-terminal after Stop: %s", id, j.Status)
		}
	}
	if _, err := sched.Submit(slowReq(hash, 3)); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: err=%v, want ErrStopped", err)
	}
}

// TestCacheKeyCoversOptions walks SolveRequest's fields: a non-zero value
// in any result-affecting field must change the cache key, and one in a
// per-call field must not. A field added later is covered without an edit
// here, unless no candidate value below normalizes for it.
func TestCacheKeyCoversOptions(t *testing.T) {
	perCall := map[string]bool{"Workers": true, "NoCache": true, "Wait": true}
	candidates := map[reflect.Kind][]any{
		reflect.String:  {"h2", "progressive", "random-each-pass"},
		reflect.Int:     {3},
		reflect.Uint64:  {uint64(9)},
		reflect.Float64: {0.25, 3.0},
		reflect.Bool:    {true},
	}
	key := func(r SolveRequest) (string, error) {
		n, err := catalog.Normalize(r)
		return catalog.Key(n), err
	}
	base := SolveRequest{Instance: "h"}
	baseKey, err := key(base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var got string
		found := false
		for _, c := range candidates[f.Type.Kind()] {
			r := base
			reflect.ValueOf(&r).Elem().Field(i).Set(reflect.ValueOf(c).Convert(f.Type))
			if k, err := key(r); err == nil {
				got, found = k, true
				break
			}
		}
		if !found {
			t.Fatalf("field %s: no candidate value normalizes; add one", f.Name)
		}
		if changed := got != baseKey; changed == perCall[f.Name] {
			t.Errorf("field %s (per-call %v): key changed = %v\n base %s\n got  %s",
				f.Name, perCall[f.Name], changed, baseKey, got)
		}
	}
}

// TestSchedulerCancelExactJob pins the offline-branch cancellation wiring:
// before the solvers grew Context support, the "exact" (and "greedy")
// algos ignored the job context, so a worst-case branch-and-bound could
// block Cancel and Stop indefinitely. The instance here is dense enough
// that an uncancelled exact solve runs far beyond the test timeout.
func TestSchedulerCancelExactJob(t *testing.T) {
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1, JobWorkers: 1, QueueDepth: 1})
	hash, _, err := reg.Put(streamcover.GenerateUniform(11, 64, 256, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	j, err := sched.Submit(SolveRequest{Instance: hash, Algo: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, sched, j.ID, StatusRunning, 5*time.Second)
	time.Sleep(20 * time.Millisecond) // let the search descend past its entry checks
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fj, err := sched.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v (exact job did not abort after Cancel)", err)
	}
	if fj.Status != StatusCanceled {
		t.Fatalf("status %s, want %s", fj.Status, StatusCanceled)
	}
}

// TestSubscribeSurvivesJobTableGC pins the Wait/watch fix: a Handle taken
// before the MaxJobs GC prunes a finished job still reports the job's
// terminal snapshot, while plain ID lookups (correctly) fail. Before
// Subscribe existed, Wait re-resolved the ID after the done signal, so a
// pruned record turned a finished job into ErrUnknownJob for its waiter.
func TestSubscribeSurvivesJobTableGC(t *testing.T) {
	const maxJobs = 2
	reg, sched := newEnv(t, registry.Config{}, Config{Slots: 1, MaxJobs: maxJobs, QueueDepth: 64})
	hash, _, err := reg.Put(smallInst(41))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sched.Submit(SolveRequest{Instance: hash, Alpha: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sched.Subscribe(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Wait(t.Context(), a.ID); err != nil {
		t.Fatal(err)
	}
	// Push enough newer jobs through to prune a's record.
	for i := 0; i < 3*maxJobs; i++ {
		j, err := sched.Submit(SolveRequest{Instance: hash, Alpha: 2, Seed: uint64(i + 2), NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Wait(t.Context(), j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sched.Job(a.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("job %s still resolvable by ID, want pruned (err=%v)", a.ID, err)
	}
	if _, err := sched.Subscribe(a.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Subscribe on pruned ID: err=%v, want ErrUnknownJob", err)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("handle's Done channel not closed for a finished job")
	}
	final := h.Snapshot()
	if final.Status != StatusDone || final.Result == nil {
		t.Fatalf("handle snapshot after GC = %+v, want done with result", final)
	}
}
