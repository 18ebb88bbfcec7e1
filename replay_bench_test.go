package streamcover

import (
	"os"
	"path/filepath"
	"testing"

	"streamcover/internal/core"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// Replay-plane benchmarks (make bench-json records them in
// BENCH_replay.json): a multi-pass solve over a binary file pays the
// varint decode once per pass; a replay plan pays it once per load and
// serves every pass from the resident instance with prebuilt run lists.

// benchReplayInstance is sized so per-pass decode dominates the solve: a
// planted instance with a known optimum lets the benchmark pin the guess
// grid to a single õpt (Algorithm 1 proper, Theorem 2's statement), and
// the wide universe keeps the sampling rate p = C·õpt·ln(m)/n^{1-1/α}
// small so the per-iteration sub-solves stay cheap relative to re-reading
// ~10M elements per pass. α=3 below means 7 passes per solve.
func benchReplayInstance() (*Instance, int) {
	inst, planted := GeneratePlanted(1, 1<<16, 2048, 8)
	return inst, len(planted)
}

func writeBenchSCB1(b *testing.B, inst *Instance) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "replay.scb1")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteInstanceBinary(f, inst); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// solveReplayed is one solve served from a plan, with the same options the
// honest leg passes to core.SolveStream.
func solveReplayed(b *testing.B, inst *Instance, plan *ReplayPlan, opt int) {
	if _, err := SolveSetCover(inst, WithAlpha(3), WithSampleConstant(2), WithOptimumHint(opt),
		WithSeed(7), WithReplayPlan(plan)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSolveFileReplay compares multi-pass SCB1 file solves three
// ways. on is coverd's warm path: the instance is loaded and its plan
// built once, outside the timer, and every solve is served from the plan.
// cold is one covercli -replay run per iteration: load (decode), plan,
// solve. off re-decodes the file on every pass of every solve.
func BenchmarkSolveFileReplay(b *testing.B) {
	inst, opt := benchReplayInstance()
	path := writeBenchSCB1(b, inst)
	b.Run("on", func(b *testing.B) {
		loaded, err := setsystem.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := BuildReplayPlan(loaded)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveReplayed(b, loaded, plan, opt)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := setsystem.Load(path)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := BuildReplayPlan(loaded)
			if err != nil {
				b.Fatal(err)
			}
			solveReplayed(b, loaded, plan, opt)
		}
	})
	b.Run("off", func(b *testing.B) {
		fs, err := stream.OpenBinaryFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		cfg := core.Config{Alpha: 3, SampleC: 2, OptGuesses: []int{opt}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _, err := core.SolveStream(fs, cfg, core.SolveFileRNG(7))
			if err != nil {
				b.Fatal(err)
			}
			if !res.Feasible {
				b.Fatal("solve infeasible; benchmark workload drifted")
			}
		}
	})
}

// BenchmarkPassOverhead isolates the per-pass stream cost the solver pays:
// one full drain of every item, honest (re-decode) vs replay (plan-backed
// views, runs prebuilt).
func BenchmarkPassOverhead(b *testing.B) {
	inst, _ := benchReplayInstance()
	path := writeBenchSCB1(b, inst)
	drain := func(b *testing.B, s stream.Stream) {
		s.Reset()
		items := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			items++
		}
		if err := stream.PassErr(s); err != nil {
			b.Fatal(err)
		}
		if items != s.Len() {
			b.Fatalf("pass read %d of %d sets", items, s.Len())
		}
	}
	b.Run("honest", func(b *testing.B) {
		fs, err := stream.OpenBinaryFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drain(b, fs)
		}
	})
	b.Run("replay", func(b *testing.B) {
		loaded, err := setsystem.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := BuildReplayPlan(loaded)
		if err != nil {
			b.Fatal(err)
		}
		s := stream.Replay(stream.FromInstance(loaded, Adversarial, nil), plan.plan)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			drain(b, s)
		}
	})
}
