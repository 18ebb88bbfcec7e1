package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/stream"
)

// The grid-solve instance is resident and mid-sized: the guess grid,
// Observe, the EndPass sub-solve and the pass driver do nearly all the
// work; there is no decode, file I/O, plan or HTTP.
func gridShape(smoke bool) shape {
	if smoke {
		return shape{1024, 128, 4}
	}
	return shape{8192, 1024, 6}
}

const (
	gridAlpha = 3
	gridSeeds = 8 // the fixed cycle of solve seeds
)

type gridInputs struct {
	inst  *streamcover.Instance
	scb1  []byte
	seeds []uint64
	// want holds each seed's result at the other worker count: results
	// must be bit-identical across worker counts.
	want []streamcover.SetCoverResult
}

func makeGridInputs(e *env) (*gridInputs, error) {
	sh := gridShape(e.smoke)
	inst, _ := streamcover.GeneratePlanted(derive(e.seed, "grid-instance"), sh.n, sh.m, sh.opt)
	var buf bytes.Buffer
	if err := streamcover.WriteInstanceBinary(&buf, inst); err != nil {
		return nil, err
	}
	in := &gridInputs{inst: inst, scb1: buf.Bytes()}
	for i := 0; i < gridSeeds; i++ {
		in.seeds = append(in.seeds, derive(e.seed, "grid-solve")%1_000_000+uint64(i)+1)
	}
	return in, nil
}

// gridSetup decodes the instance's SCB1 bytes, as an in-process user loads
// a resident instance; the median of several decodes is setup_s. Each
// decode starts from a collected heap, as a user's one decode does, rather
// than paying for the garbage of the decodes before it. The last decoded
// instance is the one solved.
func gridSetup(e *env, in *gridInputs) error {
	var walls []time.Duration
	for i := 0; i < 15; i++ {
		e.attempted++
		runtime.GC()
		start := time.Now()
		inst, err := streamcover.ReadInstance(bytes.NewReader(in.scb1))
		walls = append(walls, time.Since(start))
		if err != nil {
			e.fail("ReadInstance: %v", err)
			return err
		}
		in.inst = inst
	}
	e.set("setup_s", "s", median(seconds(walls)))
	return nil
}

func gridOpts(seed uint64, workers int) []streamcover.Option {
	return []streamcover.Option{streamcover.WithAlpha(gridAlpha), streamcover.WithSeed(seed),
		streamcover.WithParallelism(workers)}
}

// gridReferences solves every seed once at the other worker count
// (untimed).
func gridReferences(e *env, in *gridInputs, workers int) error {
	other := e.nproc
	if workers != 1 {
		other = 1
	}
	for _, seed := range in.seeds {
		e.attempted++
		res, err := streamcover.SolveSetCover(in.inst, gridOpts(seed, other)...)
		if err != nil {
			e.fail("reference solve: %v", err)
			return err
		}
		in.want = append(in.want, res)
	}
	return nil
}

func sameResult(a, b streamcover.SetCoverResult) bool {
	return slices.Equal(a.Cover, b.Cover) && a.Guess == b.Guess && a.Passes == b.Passes && a.SpaceWords == b.SpaceWords
}

// gridWorkers is 1, or nproc for the -wn leg.
func gridWorkers(e *env, wn bool) int {
	if wn {
		return e.nproc
	}
	return 1
}

// runGridSolve is the grid-solve end-to-end leg: in-process
// streamcover.SolveSetCover on the resident instance over the seed cycle.
func runGridSolve(wn bool) func(e *env) error {
	return func(e *env) error {
		in, err := makeGridInputs(e)
		if err != nil {
			return err
		}
		if err := gridSetup(e, in); err != nil {
			return err
		}
		workers := gridWorkers(e, wn)
		if err := gridReferences(e, in, workers); err != nil {
			return err
		}
		rss := sampleRSS(os.Getpid())
		walls, elapsed, _ := gridSolves(e, in, workers, e.seconds)
		samples := rss.finish()
		if len(walls) == 0 {
			return errNoOps
		}
		e.set("op_p50_s", "s", median(seconds(walls)))
		e.set("ops_per_s", "1/s", float64(len(walls))/elapsed.Seconds())
		e.set("rss_mb", "MB", median(samples))
		fmt.Fprintf(e.stdout, "peak RSS %.1f MB\n", selfRSSMB())
		return nil
	}
}

// gridSolves solves back to back for d (at least once), cycling seeds and
// checking each result against its other-worker-count reference.
func gridSolves(e *env, in *gridInputs, workers int, d time.Duration) (walls []time.Duration, elapsed time.Duration, gaps []time.Duration) {
	start := time.Now()
	var last time.Time
	for i := 0; len(walls) == 0 || time.Since(start) < d; i++ {
		k := i % len(in.seeds)
		e.attempted++
		t0 := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, t0.Sub(last))
		}
		res, err := streamcover.SolveSetCover(in.inst, gridOpts(in.seeds[k], workers)...)
		last = time.Now()
		if err != nil {
			e.fail("solve: %v", err)
			if time.Since(start) > d {
				break
			}
			continue
		}
		walls = append(walls, last.Sub(t0))
		if !sameResult(res, in.want[k]) {
			e.wrong("seed %d: workers=%d gave %v, other worker count gave %v", in.seeds[k], workers, res, in.want[k])
		}
	}
	return walls, time.Since(start), gaps
}

// traceGridSolve is the traced grid-solve run: untraced solves, then the
// same solves through the tracing wrappers, for half the time each, then
// the layer probes on the same instance.
func traceGridSolve(wn bool) func(e *env) error {
	return func(e *env) error {
		in, err := makeGridInputs(e)
		if err != nil {
			return err
		}
		if err := gridSetup(e, in); err != nil {
			return err
		}
		workers := gridWorkers(e, wn)
		if err := gridReferences(e, in, workers); err != nil {
			return err
		}
		plain, _, gaps := gridSolves(e, in, workers, e.seconds/2)
		cfg := core.Config{Alpha: gridAlpha, Epsilon: 0.5, Workers: workers}
		var traced []time.Duration
		var traces []solveTrace
		start := time.Now()
		for i := 0; len(traced) == 0 || time.Since(start) < e.seconds/2; i++ {
			k := i % len(in.seeds)
			e.attempted++
			st := stream.FromInstance(in.inst, stream.Adversarial, nil)
			t, err := tracedSolve(e.spans, 0, st, cfg, in.seeds[k])
			if err != nil {
				e.fail("traced solve: %v", err)
				continue
			}
			traced = append(traced, t.wall)
			traces = append(traces, t)
			got := streamcover.SetCoverResult{Cover: t.res.Cover, Guess: t.res.Guess, Passes: t.acc.Passes, SpaceWords: t.acc.PeakSpace}
			if !sameResult(got, in.want[k]) {
				e.wrong("traced seed %d: %v, want %v", in.seeds[k], got, in.want[k])
			}
		}
		if len(plain) == 0 || len(traced) == 0 {
			return errNoOps
		}
		e.set("bench.trace_overhead_frac", "ratio", median(seconds(traced))/median(seconds(plain))-1)
		e.set("load.late_p99_s", "s", quantile(seconds(append(gaps, 0)), 0.99))
		p := &probe{e: e, inst: in.inst, cfg: core.Config{Alpha: gridAlpha, Epsilon: 0.5},
			workers: workers, solveSeed: in.seeds[0]}
		return p.run(traces)
	}
}
