// Command perfbench is the repository benchmark. It runs one workload
// against the covercli and coverd binaries and the root streamcover API
// built from the same checkout, checks every output, and prints its
// metrics by name, ending with one JSON line:
//
//	bash perfbench/run.sh --workload grid-solve-w1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json;
// with --trace 1 a separate traced run reports the per-layer metrics. See
// README.md beside this file for why each workload exists, the layer map
// and the stable-surfaces rule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one entry of the benchmark: a traffic shape with its end-to-
// end leg (trace 0) and its traced leg (trace 1).
type workload struct {
	name string
	// aliases gives the name each generic metric has on this workload in
	// README.md's metric table (printed beside the value).
	aliases map[string]string
	run     func(e *env) error
	traced  func(e *env) error
}

var workloads = []workload{
	{name: "file-stream-honest", run: runFileStream(false), traced: traceFileStream(false),
		aliases: map[string]string{"op_p50_s": "honest_solve_s", "rss_mb": "honest_peak_rss_mb"}},
	{name: "file-stream-replay", run: runFileStream(true), traced: traceFileStream(true),
		aliases: map[string]string{"op_p50_s": "replay_solve_s", "rss_mb": "replay_peak_rss_mb"}},
	{name: "grid-solve-w1", run: runGridSolve(false), traced: traceGridSolve(false),
		aliases: map[string]string{"op_p50_s": "solve_w1_s", "streamcover.alloc_mb_per_solve": "alloc_mb_per_solve"}},
	{name: "grid-solve-wn", run: runGridSolve(true), traced: traceGridSolve(true),
		aliases: map[string]string{"op_p50_s": "solve_wn_s", "streamcover.alloc_mb_per_solve": "alloc_mb_per_solve"}},
	{name: "serve-mix", run: runServeMix, traced: traceServeMix,
		aliases: map[string]string{"op_p50_s": "rt_p50_s", "ops_per_s": "capacity_jobs_per_s",
			"rss_mb": "peak_rss_mb", "load.rt_p99_s": "rt_p99_s"}},
}

// endToEnd and perLayer are the metric names (and units) of BENCHMARK.json.
// Every run of every workload reports every name of its mode.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"ops_per_s", "1/s"},
	{"rss_mb", "MB"},
}

type metricSpec struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's configuration and its accumulating results.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	smoke    bool   // small inputs, for the benchmark's own tests
	bin      string // directory holding the covercli and coverd binaries
	root     string // checkout root (the stamp hashes its sources)
	work     string // per-run scratch directory, removed at exit
	out      string // directory receiving results/ and traces/
	nproc    int
	stdout   io.Writer
	stderr   io.Writer

	attempted int
	failed    int
	mismatch  int
	notes     int
	metrics   map[string]metric
	spans     *recorder // nil with --trace 0
}

// set records a metric value under its unit.
func (e *env) set(name, unit string, v float64) { e.metrics[name] = metric{Value: v, Unit: unit} }

// fail counts a failed operation; the first few reasons go to stderr.
func (e *env) fail(format string, args ...any) {
	e.failed++
	e.note(format, args...)
}

// wrong counts an output that disagrees with its reference: a failed
// operation that also makes the run incorrect.
func (e *env) wrong(format string, args ...any) {
	e.mismatch++
	e.fail("mismatch: "+format, args...)
}

func (e *env) note(format string, args ...any) {
	if e.notes < 20 {
		fmt.Fprintf(e.stderr, "perfbench: "+format+"\n", args...)
	}
	e.notes++
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs one workload and returns the process exit code: 0 when a
// result line was printed, 1 when the run could not produce one, 2 on bad
// flags.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Uint64("seed", 1, "workload seed: generates the instances, solve seeds and request schedule")
		seconds = fs.Float64("seconds", 20, "measured seconds")
		traceOn = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		bin     = fs.String("bin", "", "directory holding the covercli and coverd binaries")
		root    = fs.String("root", ".", "checkout root")
		out     = fs.String("out", ".bench_build", "directory for scratch files, results and traces")
		smoke   = fs.Bool("smoke", false, "small inputs (the benchmark's own tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	for _, b := range []string{"covercli", "coverd"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s binary missing: %v\n", b, err)
			return 1
		}
	}
	e := &env{
		workload: wl.name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traceOn == 1, smoke: *smoke, bin: *bin, root: *root, out: *out,
		nproc: runtime.NumCPU(), stdout: stdout, stderr: stderr, metrics: map[string]metric{},
	}
	work, err := os.MkdirTemp(mkdirAll(filepath.Join(*out, "work")), wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e.work = work

	st := stampOf(e)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", wl.name, e.seed, *seconds, *traceOn)
	fmt.Fprintf(stdout, "stamp: %s\n", st)
	run := wl.run
	if e.trace {
		e.spans = newRecorder()
		run = wl.traced
	}
	if err := run(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := e.metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", wl.name, m.name)
			return 1
		}
	}
	rep := report{Correct: e.mismatch == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		rep.Metrics[m.name] = e.metrics[m.name]
		alias := ""
		if a, ok := wl.aliases[m.name]; ok {
			alias = "  (" + a + ")"
		}
		fmt.Fprintf(stdout, "%-34s %14.6g %-6s%s\n", m.name, rep.Metrics[m.name].Value, m.unit, alias)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, output mismatches %d\n", e.attempted, e.failed, e.mismatch)
	writeRecord(e, st, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// writeRecord keeps the stamped result (and, for a traced run, the spans)
// under the output directory, so a recording never loses where it came
// from. Failing to write it does not fail the run.
func writeRecord(e *env, st stamp, rep report) {
	kind := "e2e"
	if e.trace {
		kind = "traced"
	}
	base := fmt.Sprintf("%s-seed%d-%s", e.workload, e.seed, kind)
	rec := struct {
		Stamp  stamp  `json:"stamp"`
		Result report `json:"result"`
	}{st, rep}
	if buf, err := json.MarshalIndent(rec, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(mkdirAll(filepath.Join(e.out, "results")), base+".json"), buf, 0o644)
	}
	if e.spans != nil {
		_ = e.spans.writeFile(filepath.Join(mkdirAll(filepath.Join(e.out, "traces")), base+".jsonl"))
	}
}

var errNoOps = errors.New("no operation completed within the measured time")
