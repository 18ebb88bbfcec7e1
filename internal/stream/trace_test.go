package stream

import (
	"context"
	"testing"
	"time"
)

// traceAlg is countingAlg plus a lane count: a minimal LaneCounter for
// driver trace tests, with a per-pass footprint of (pass+1)*4 words.
type traceAlg struct {
	passes int
	seen   int
	pass   int
	live   int
}

func (a *traceAlg) BeginPass(pass int) { a.pass = pass }
func (a *traceAlg) Observe(Item)       { a.seen++ }
func (a *traceAlg) EndPass() bool      { return a.pass+1 >= a.passes }
func (a *traceAlg) Space() int         { return (a.pass + 1) * 4 }
func (a *traceAlg) LiveLanes() int     { return a.live }

func TestRunTracedSamples(t *testing.T) {
	in := testInstance(12)
	s := FromInstance(in, Adversarial, nil)
	alg := &traceAlg{passes: 3, live: 5}
	var tr Trace
	acc, err := RunTraced(context.Background(), s, alg, 10, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Passes != 3 || acc.Items != 36 {
		t.Fatalf("accounting = %+v", acc)
	}
	samples := tr.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want one per pass", len(samples))
	}
	for i, sm := range samples {
		if sm.Pass != i {
			t.Fatalf("sample %d has pass index %d", i, sm.Pass)
		}
		if sm.Items != 12 {
			t.Fatalf("pass %d observed %d items, want 12", i, sm.Items)
		}
		if sm.Duration <= 0 {
			t.Fatalf("pass %d has non-positive duration %v", i, sm.Duration)
		}
		if sm.SpaceWords != (i+1)*4 {
			t.Fatalf("pass %d space = %d, want %d", i, sm.SpaceWords, (i+1)*4)
		}
		if sm.PeakSpace != (i+1)*4 {
			t.Fatalf("pass %d peak = %d, want %d", i, sm.PeakSpace, (i+1)*4)
		}
		if sm.Live != 5 {
			t.Fatalf("pass %d live = %d, want the algorithm's lane count", i, sm.Live)
		}
		if sm.Replayed {
			t.Fatalf("pass %d flagged replayed on an honest stream", i)
		}
	}
}

// TestRunTracedNilSinkMatchesRunContext pins that RunContext is exactly the
// nil-sink special case: same accounting, same error.
func TestRunTracedNilSinkMatchesRunContext(t *testing.T) {
	in := testInstance(9)
	a1 := &traceAlg{passes: 2}
	acc1, err1 := RunContext(context.Background(), FromInstance(in, Adversarial, nil), a1, 5)
	a2 := &traceAlg{passes: 2}
	acc2, err2 := RunTraced(context.Background(), FromInstance(in, Adversarial, nil), a2, 5, nil)
	if acc1 != acc2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("RunContext %+v/%v vs RunTraced(nil) %+v/%v", acc1, err1, acc2, err2)
	}
}

// TestRunTracedUnknownLanes pins the -1 convention for algorithms that do
// not expose a lane count.
func TestRunTracedUnknownLanes(t *testing.T) {
	type bare struct {
		PassAlgorithm
	}
	in := testInstance(4)
	alg := &traceAlg{passes: 1}
	var tr Trace
	if _, err := RunTraced(context.Background(), FromInstance(in, Adversarial, nil), bare{alg}, 2, &tr); err != nil {
		t.Fatal(err)
	}
	if s := tr.Samples(); len(s) != 1 || s[0].Live != -1 {
		t.Fatalf("samples = %+v, want one sample with Live == -1", s)
	}
}

// TestRunTracedReplayedFlags pins the replay annotation against a real
// replay stream: every pass is served from the plan.
func TestRunTracedReplayedFlags(t *testing.T) {
	in := testInstance(8)
	plan, err := BuildPlan(FromInstance(in, Adversarial, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	alg := &traceAlg{passes: 3}
	var tr Trace
	acc, err := RunTraced(context.Background(), Replay(FromInstance(in, Adversarial, nil), plan), alg, 5, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Passes != 3 {
		t.Fatalf("accounting = %+v", acc)
	}
	samples := tr.Samples()
	if len(samples) != 3 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, sm := range samples {
		if !sm.Replayed {
			t.Fatalf("pass %d not flagged replayed", i)
		}
		if sm.Items != 8 {
			t.Fatalf("pass %d observed %d items", i, sm.Items)
		}
	}
}

// TestTraceResetReuse pins the steady-state contract: a reused Trace keeps
// its capacity, so tracing a run into it does not allocate per pass.
func TestTraceResetReuse(t *testing.T) {
	in := testInstance(6)
	var tr Trace
	run := func() {
		tr.Reset()
		alg := &traceAlg{passes: 4}
		if _, err := RunTraced(context.Background(), FromInstance(in, Adversarial, nil), alg, 8, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 4 {
			t.Fatalf("trace len %d after run", tr.Len())
		}
	}
	run() // warm up: grow the sample slice once
	allocs := testing.AllocsPerRun(20, func() {
		tr.Reset()
		tr.TracePass(PassSample{Pass: 0, Duration: time.Microsecond})
		tr.TracePass(PassSample{Pass: 1})
		tr.TracePass(PassSample{Pass: 2})
		tr.TracePass(PassSample{Pass: 3})
	})
	if allocs != 0 {
		t.Fatalf("reused Trace allocated %.1f times per run, want 0", allocs)
	}
	run() // and the full driver still works after the churn
}
