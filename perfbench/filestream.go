package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/stream"
)

// shape is a planted instance size: universe n, m sets, planted optimum opt.
type shape struct{ n, m, opt int }

// The file-stream instance is the BenchmarkSolveFileReplay shape: about 10M
// elements, so every honest pass re-reads a ~10 MB SCB1 file.
func fileShape(smoke bool) shape {
	if smoke {
		return shape{4096, 256, 4}
	}
	return shape{65536, 2048, 8}
}

const fileAlpha = 3

// fileInputs are one run's generated file-stream inputs.
type fileInputs struct {
	inst      *streamcover.Instance
	text      string // the text file the user converts once (set-up)
	scb1      string // the converted file every solve streams
	solveSeed uint64
	want      string // covercli's stdout: the in-process reference
}

func makeFileInputs(e *env) (*fileInputs, error) {
	sh := fileShape(e.smoke)
	inst, _ := streamcover.GeneratePlanted(derive(e.seed, "file-instance"), sh.n, sh.m, sh.opt)
	in := &fileInputs{
		inst: inst, text: filepath.Join(e.work, "instance.txt"), scb1: filepath.Join(e.work, "instance.scb1"),
		solveSeed: derive(e.seed, "file-solve")%1_000_000 + 1,
	}
	if err := writeInstance(in.text, inst, streamcover.WriteInstance); err != nil {
		return nil, err
	}
	res, err := streamcover.SolveSetCover(inst, streamcover.WithAlpha(fileAlpha), streamcover.WithSeed(in.solveSeed))
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	in.want = fileStdout(inst.N, inst.M(), res.String())
	return in, nil
}

// fileStdout is covercli's stdout for a file-streamed alg1 solve.
func fileStdout(n, m int, result string) string {
	return fmt.Sprintf("instance (file-streamed): n=%d m=%d\nalg1(α=%d): %s\n", n, m, fileAlpha, result)
}

func writeInstance(path string, inst *streamcover.Instance, enc func(io.Writer, *streamcover.Instance) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f, inst); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procResult is one finished child process.
type procResult struct {
	stdout string
	wall   time.Duration
	rssMB  float64
	err    error
}

// runProc runs a binary from the benchmark's bin directory to completion.
// The timeout only guards against a hung child; a healthy run never nears
// it.
func (e *env) runProc(name string, args ...string) procResult {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	err := cmd.Run()
	r := procResult{stdout: out.String(), wall: time.Since(start), rssMB: childRSSMB(cmd), err: err}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(errOut.String()))
	}
	return r
}

// convertSetup is the one-time step a user runs before streaming solves:
// convert the text instance to SCB1. It runs three times; the median is
// setup_s.
func convertSetup(e *env, in *fileInputs, reps int) error {
	var walls []time.Duration
	for i := 0; i < reps; i++ {
		e.attempted++
		r := e.runProc("covercli", "-in", in.text, "-convert", in.scb1, "-to", "scb1")
		if r.err != nil {
			e.fail("%v", r.err)
			return r.err
		}
		if !strings.HasPrefix(r.stdout, "converted: ") {
			e.wrong("convert printed %q", r.stdout)
		}
		walls = append(walls, r.wall)
	}
	e.set("setup_s", "s", median(seconds(walls)))
	return nil
}

// fileSolveArgs is one covercli file solve: full guess grid, default ε and
// sample constant, one fixed solve seed.
func fileSolveArgs(in *fileInputs, replay bool) []string {
	return []string{"-in", in.scb1, "-alpha", strconv.Itoa(fileAlpha),
		"-seed", strconv.FormatUint(in.solveSeed, 10), "-replay=" + strconv.FormatBool(replay)}
}

// fileSolves runs covercli solve processes back to back for d (at least
// one), checking each stdout against the reference.
func fileSolves(e *env, in *fileInputs, replay bool, d time.Duration) (walls []time.Duration, rss []float64, elapsed time.Duration) {
	args := fileSolveArgs(in, replay)
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		e.attempted++
		r := e.runProc("covercli", args...)
		if r.err != nil {
			e.fail("%v", r.err)
			if len(walls) == 0 && time.Since(start) > d {
				break
			}
			continue
		}
		if r.stdout != in.want {
			e.wrong("covercli stdout %q, want %q", r.stdout, in.want)
		}
		walls = append(walls, r.wall)
		rss = append(rss, r.rssMB)
	}
	return walls, rss, time.Since(start)
}

// runFileStream is the file-stream end-to-end leg: each operation is one
// covercli -in <file>.scb1 -alpha 3 process, honest or replayed.
func runFileStream(replay bool) func(e *env) error {
	return func(e *env) error {
		in, err := makeFileInputs(e)
		if err != nil {
			return err
		}
		if err := convertSetup(e, in, 3); err != nil {
			return err
		}
		walls, rss, elapsed := fileSolves(e, in, replay, e.seconds)
		if len(walls) == 0 {
			return errNoOps
		}
		e.set("op_p50_s", "s", median(seconds(walls)))
		e.set("ops_per_s", "1/s", float64(len(walls))/elapsed.Seconds())
		// Per-process peaks split into GC-timing modes; the mean over the
		// run's processes holds still where their median flips between modes.
		e.set("rss_mb", "MB", mean(rss))
		return nil
	}
}

// fileSolveInProcess is the operation covercli performs, through the
// functions it calls: open the file, for replay record it once into a plan
// and serve every pass from the plan, and solve. With rec non-nil the
// solve runs through the tracing wrappers; nil runs the plain library path.
func fileSolveInProcess(rec *recorder, in *fileInputs, replay bool, workers int) (string, *solveTrace, error) {
	start := time.Now()
	op := rec.reserve(0, "file.solve")
	var fs stream.FileBacked
	var err error
	rec.time(op, "stream.open", func() { fs, err = stream.Open(in.scb1) })
	if err != nil {
		return "", nil, err
	}
	defer fs.Close()
	var src stream.Stream = fs
	if replay {
		var plan *stream.Plan
		rec.time(op, "stream.build_plan", func() { plan, err = stream.BuildPlan(fs, 0) })
		if err != nil {
			return "", nil, err
		}
		src = stream.Replay(&idOrder{n: fs.Universe(), m: fs.Len()}, plan)
	}
	cfg := core.Config{Alpha: fileAlpha, Epsilon: 0.5, Workers: workers}
	var out string
	var tr *solveTrace
	if rec == nil {
		best, acc, err := core.SolveStream(src, cfg, core.SolveFileRNG(in.solveSeed))
		if err != nil {
			return "", nil, err
		}
		out = fileStdout(fs.Universe(), fs.Len(), resultString(best, acc))
	} else {
		t, err := tracedSolve(rec, op, src, cfg, in.solveSeed)
		if err != nil {
			return "", nil, err
		}
		tr = &t
		out = fileStdout(fs.Universe(), fs.Len(), resultString(t.res, t.acc))
	}
	rec.fill(op, start, time.Since(start), map[string]any{"replay": replay})
	return out, tr, nil
}

func resultString(r core.Result, acc stream.Accounting) string {
	return streamcover.SetCoverResult{Cover: r.Cover, Guess: r.Guess, Passes: acc.Passes, SpaceWords: acc.PeakSpace}.String()
}

// traceFileStream is the traced file-stream run: the covercli operation
// in process, untraced then traced for half the time each, then the layer
// probes on the same instance.
func traceFileStream(replay bool) func(e *env) error {
	return func(e *env) error {
		in, err := makeFileInputs(e)
		if err != nil {
			return err
		}
		if err := convertSetup(e, in, 1); err != nil {
			return err
		}
		// One covercli process ties the in-process result to the binary.
		if walls, _, _ := fileSolves(e, in, replay, 0); len(walls) == 0 {
			return errNoOps
		}
		workers := e.nproc
		var gaps []time.Duration
		loop := func(rec *recorder) (walls []time.Duration, traces []solveTrace) {
			start := time.Now()
			var last time.Time
			for len(walls) == 0 || time.Since(start) < e.seconds/2 {
				e.attempted++
				t0 := time.Now()
				if !last.IsZero() {
					gaps = append(gaps, t0.Sub(last))
				}
				out, tr, err := fileSolveInProcess(rec, in, replay, workers)
				last = time.Now()
				if err != nil {
					e.fail("in-process file solve: %v", err)
					if time.Since(start) > e.seconds/2 {
						break
					}
					continue
				}
				walls = append(walls, time.Since(t0))
				if out != in.want {
					e.wrong("in-process file solve printed %q, want covercli's %q", out, in.want)
				}
				if tr != nil {
					traces = append(traces, *tr)
				}
			}
			return walls, traces
		}
		plain, _ := loop(nil)
		traced, traces := loop(e.spans)
		if len(plain) == 0 || len(traced) == 0 {
			return errNoOps
		}
		e.set("bench.trace_overhead_frac", "ratio", median(seconds(traced))/median(seconds(plain))-1)
		e.set("load.late_p99_s", "s", quantile(seconds(append(gaps, 0)), 0.99))
		p := &probe{e: e, inst: in.inst, files: instFiles{text: in.text, scb1: in.scb1},
			cfg: core.Config{Alpha: fileAlpha, Epsilon: 0.5}, workers: workers, solveSeed: in.solveSeed}
		return p.run(traces)
	}
}
