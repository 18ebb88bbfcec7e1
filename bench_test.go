package streamcover

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streamcover/internal/experiments"
	"streamcover/internal/stream"
)

// One benchmark per reproduced experiment (DESIGN.md §5): each regenerates
// its table at quick scale, so `go test -bench=.` both times the harness
// and re-checks that every experiment still runs end to end. Full-scale
// tables come from `go run ./cmd/tradeoff`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(id, experiments.Config{Seed: 20170601, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1SpaceApproxTradeoff regenerates Theorem 2's space/α table.
func BenchmarkE1SpaceApproxTradeoff(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2LowerBoundTransition regenerates the Theorem 1/3 budget sweep.
func BenchmarkE2LowerBoundTransition(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3HardInstanceGap regenerates the Lemma 3.2 optimum-gap table.
func BenchmarkE3HardInstanceGap(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4RandomOrder regenerates the Lemma 3.7 robustness table.
func BenchmarkE4RandomOrder(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5MaxCoverageTransition regenerates the Theorem 4/5 sweep.
func BenchmarkE5MaxCoverageTransition(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6MaxCoverGap regenerates the Lemma 4.3 separation table.
func BenchmarkE6MaxCoverGap(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7BaselineComparison regenerates the algorithm comparison.
func BenchmarkE7BaselineComparison(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8CoverageConcentration regenerates the Lemma 2.2 table.
func BenchmarkE8CoverageConcentration(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9InfoCost regenerates the Proposition 2.5 information table.
func BenchmarkE9InfoCost(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10ElementSampling regenerates the Lemma 3.12 threshold table.
func BenchmarkE10ElementSampling(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Ablations regenerates the design-choice ablations.
func BenchmarkE11Ablations(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Reductions regenerates the Lemma 3.4/4.5 soundness table.
func BenchmarkE12Reductions(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13IterationShrinkage regenerates the Lemma 3.11 decay table.
func BenchmarkE13IterationShrinkage(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14GuessGridOverhead regenerates the wrapper-cost table.
func BenchmarkE14GuessGridOverhead(b *testing.B) { benchExperiment(b, "E14") }

// --- Public API benchmarks -------------------------------------------------

// BenchmarkSolveSetCoverAlpha2 measures the end-to-end solver at α=2.
func BenchmarkSolveSetCoverAlpha2(b *testing.B) {
	inst, _ := GeneratePlanted(1, 4096, 512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSetCover(inst, WithAlpha(2), WithSeed(uint64(i)+1), WithSampleConstant(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSetCoverAlpha4 measures the end-to-end solver at α=4.
func BenchmarkSolveSetCoverAlpha4(b *testing.B) {
	inst, _ := GeneratePlanted(1, 4096, 512, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSetCover(inst, WithAlpha(4), WithSeed(uint64(i)+1), WithSampleConstant(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveMaxCoverage measures the streaming k-cover (greedy
// sub-solve mode, the practical choice beyond tiny k).
func BenchmarkSolveMaxCoverage(b *testing.B) {
	inst := GenerateUniform(2, 8192, 512, 256, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMaxCoverage(inst, 4, WithSeed(uint64(i)+1), WithGreedySubsolver()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySetCover measures the offline reference on a mid-size
// instance.
func BenchmarkGreedySetCover(b *testing.B) {
	inst := GenerateUniform(3, 8192, 1024, 128, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedySetCover(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateHardSetCover measures D_SC sampling throughput.
func BenchmarkGenerateHardSetCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateHardSetCover(uint64(i), 4096, 32, 2, i%2)
	}
}

// --- Data-plane benchmarks ---------------------------------------------------
//
// The CSR/binary data plane exists to starve the solvers less: these
// benchmarks track the codec and per-pass stream costs (run with -benchmem;
// make bench-json records them in BENCH_csr.json).

func benchCodecInstance() *Instance {
	return GenerateZipf(9, 1<<14, 2048, 1.3, 1<<11)
}

// BenchmarkCodecWriteText measures text encoding throughput.
func BenchmarkCodecWriteText(b *testing.B) {
	inst := benchCodecInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteInstance(&buf, inst); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkCodecWriteBinary measures binary encoding throughput.
func BenchmarkCodecWriteBinary(b *testing.B) {
	inst := benchCodecInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteInstanceBinary(&buf, inst); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkCodecReadText measures text decoding (the old FileStream parse
// path: strconv on every element).
func BenchmarkCodecReadText(b *testing.B) {
	inst := benchCodecInstance()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, inst); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadInstance(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecReadBinary measures binary decoding (varint deltas straight
// into the arena).
func BenchmarkCodecReadBinary(b *testing.B) {
	inst := benchCodecInstance()
	var buf bytes.Buffer
	if err := WriteInstanceBinary(&buf, inst); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadInstance(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamPass drives full passes over a file-backed stream, measuring
// the per-pass re-read cost the multi-pass solvers pay.
func benchStreamPass(b *testing.B, path string) {
	s, err := stream.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		items := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			items++
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		if items != s.Len() {
			b.Fatalf("pass read %d of %d sets", items, s.Len())
		}
	}
}

// BenchmarkStreamTextFilePass measures one full pass of the text stream.
func BenchmarkStreamTextFilePass(b *testing.B) {
	inst := benchCodecInstance()
	path := filepath.Join(b.TempDir(), "inst.sc")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteInstance(f, inst); err != nil {
		b.Fatal(err)
	}
	f.Close()
	benchStreamPass(b, path)
}

// BenchmarkStreamBinaryFilePass measures one full pass of the binary
// stream (reusable buffer, no strconv — the allocation-free path).
func BenchmarkStreamBinaryFilePass(b *testing.B) {
	inst := benchCodecInstance()
	path := filepath.Join(b.TempDir(), "inst.scb")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteInstanceBinary(f, inst); err != nil {
		b.Fatal(err)
	}
	f.Close()
	benchStreamPass(b, path)
}

// BenchmarkGenerateZipf tracks the generator that used to allocate one
// map per set (now a shared stamp-array scratch).
func BenchmarkGenerateZipf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateZipf(uint64(i)+1, 1<<13, 1024, 1.4, 1<<10)
	}
}

// --- Sequential vs parallel benchmarks --------------------------------------

// benchWorkerCounts is the worker-count axis of the parallel benchmarks:
// 1 (the sequential reference), 2, 4, and GOMAXPROCS, deduplicated. On a
// machine with GOMAXPROCS >= 4 the guess-grid benchmark below should show
// >= 2x speedup of workers=4 over workers=1 (the grid runs ~20 independent
// guesses per pass).
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkSolveSetCoverGuessGrid measures the end-to-end solver on the full
// (1+ε)-geometric õpt guess grid — the paper's agnostic wrapper, the hot
// path WithParallelism accelerates — across worker counts.
func BenchmarkSolveSetCoverGuessGrid(b *testing.B) {
	inst, _ := GeneratePlanted(1, 8192, 1024, 6)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveSetCover(inst, WithAlpha(3), WithSeed(7),
					WithSampleConstant(2), WithParallelism(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
