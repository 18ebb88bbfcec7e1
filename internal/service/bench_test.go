package service

import (
	"context"
	"testing"

	"streamcover"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/registry"
	"streamcover/internal/stream"
)

// BenchmarkSolveTracing measures the request-tracing plane's cost on a full
// scheduler solve: identical jobs with the flight recorder attached (root
// span and the scheduler's child spans; passes are recorded in the job's
// trace either way, never on a span) and with tracing off (the nil chain).
// The recorded delta is the plane's whole overhead — BENCH_obs.json tracks
// it across PRs.
func BenchmarkSolveTracing(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			reg := registry.New(registry.Config{})
			sched := NewScheduler(reg, Config{Slots: 1, CacheEntries: -1})
			defer sched.Stop()
			inst, _ := streamcover.GeneratePlanted(3, 2048, 256, 4)
			hash, _, err := reg.Put(inst)
			if err != nil {
				b.Fatal(err)
			}
			var tracer *trace.Tracer
			if mode == "on" {
				tracer = trace.NewTracer(trace.DefaultCapacity, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh seed defeats the result cache; StartRoot on a nil
				// tracer is the production disabled path.
				ctx, root := tracer.StartRoot(context.Background(), "bench", trace.SpanContext{})
				job, err := sched.SubmitContext(ctx, SolveRequest{
					Instance: hash, Seed: uint64(i + 1), NoCache: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				final, err := sched.Wait(context.Background(), job.ID)
				root.End()
				if err != nil {
					b.Fatal(err)
				}
				if final.Status != StatusDone {
					b.Fatalf("job %s: %s", final.Status, final.Error)
				}
			}
		})
	}
}

// TestTracingDisabledHotPathAllocs guards the zero-perturbation contract at
// the service layer: the per-pass feed (the job's pass record plus the live
// pass histogram and replayed counter) must not allocate per pass. The
// record's append is the only growth, and the record is reset to its
// capacity each run, so any allocation the test sees comes from the feed.
// The trace package pins the same property for the span API itself.
func TestTracingDisabledHotPathAllocs(t *testing.T) {
	feed := &passFeed{m: newSchedMetrics(obs.NewRegistry(), &Scheduler{})}
	sample := stream.PassSample{Pass: 1, Items: 100, SpaceWords: 64, Live: -1, Replayed: true}
	allocs := testing.AllocsPerRun(200, func() {
		feed.Reset()
		feed.TracePass(sample)
	})
	if allocs != 0 {
		t.Fatalf("the pass feed allocates %.1f times per pass, want 0", allocs)
	}
}
