// Command covercli solves set cover instances with the streaming and
// offline algorithms in this repository, reporting cover size, passes and
// peak space.
//
// Usage:
//
//	covercli -in instance.sc -algo alg1 -alpha 3
//	covercli -gen planted -n 8192 -m 1024 -opt 6 -algo progressive
//	covercli -gen zipf -n 4096 -m 512 -algo greedy -order random-each-pass
//	covercli -server http://localhost:8650 -gen planted -alpha 3
//	covercli -in instance.sc -convert instance.scb2            # codec convert
//	covercli -gen zipf -n 4096 -m 512 -convert z.scb -to scb1
//
// -algo and -order take the solver catalog's vocabulary, the names coverd
// accepts: setcover (the paper's Algorithm 1, also alg1; the default),
// progressive (threshold-decay multi-pass greedy), storeall (buffer stream
// + offline greedy), greedy (offline), exact (offline branch-and-bound);
// adversarial (the default), random-once (also random), random-each-pass.
// maxcover needs a coverage budget k, which covercli has no flag for.
//
// The flags become one solve request, normalized by the catalog before
// anything is loaded (a bad value exits 2; -alpha 0 and -eps 0 select the
// catalog's defaults). It is solved locally through the catalog or, with
// -server, by a coverd daemon through the same catalog: the instance is
// uploaded (deduplicated by content hash) and the result verified locally.
// One printer renders both, so the output is identical — coverd's
// determinism-over-the-wire contract, which `make serve-smoke` diffs. The
// one solve outside the catalog is setcover in adversarial order over an
// -in file, which re-reads the file every pass (the paper's disk-resident
// model) unless -replay loads it once.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/buildinfo"
	"streamcover/internal/catalog"
	"streamcover/internal/core"
	obstrace "streamcover/internal/obs/trace"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

func main() {
	var (
		in      = flag.String("in", "", "instance file (text or binary, auto-detected); empty means -gen")
		gen     = flag.String("gen", "planted", "generator: planted, uniform, zipf, clustered")
		n       = flag.Int("n", 4096, "universe size (generators)")
		m       = flag.Int("m", 512, "number of sets (generators)")
		opt     = flag.Int("opt", 4, "planted optimum size (gen=planted)")
		algo    = flag.String("algo", "", "solver: "+catalog.AlgoChoices+"; empty selects the first")
		alpha   = flag.Int("alpha", 0, "approximation parameter α (setcover); 0 selects the catalog default")
		eps     = flag.Float64("eps", 0, "ε (setcover); 0 selects the catalog default")
		order   = flag.String("order", "", "arrival order: "+catalog.OrderChoices+"; empty selects the first")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "guess-grid worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical at every value")
		server  = flag.String("server", "", "coverd base URL; non-empty runs the solve remotely")
		convert = flag.String("convert", "", "write the instance (-in or -gen) to this path instead of solving")
		to      = flag.String("to", "scb2", "codec for -convert: scb2 (mmap-native), scb1 (compact varint), text")
		replay  = flag.Bool("replay", false, "load the -in file once (SCB2 mapped, SCB1/text decoded), record a replay plan (elements + prebuilt run lists) and serve every pass from memory, as coverd does; results are identical, but the whole instance must fit in memory")
		trace   = flag.Bool("trace", false, "print a per-pass solve timeline (duration, items, space, live lanes) on stderr; with -server also propagate a traceparent and render the server's span tree; stdout is unchanged")
		version = flag.Bool("version", false, "print version and build information, then exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "covercli")
		return
	}
	req, err := validateFlags(client.SolveRequest{
		Algo: *algo, Alpha: *alpha, Epsilon: *eps, Order: *order, Seed: *seed, Workers: *workers,
	}, *gen, *in, *convert, *to)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercli: %v\n", err)
		os.Exit(2)
	}

	if *convert != "" {
		runConvert(*convert, *to, *in, *gen, *n, *m, *opt, *seed)
		return
	}

	// Setcover in adversarial order over a file is the paper's disk-resident
	// solve, and its output has its own shape: a header without set-size
	// stats and no verification line. Every path mirrors that shape for the
	// same flags, so remote == local holds on every flag combination.
	e := catalog.Lookup(req.Algo)
	fileStreamed := *in != "" && req.Algo == catalog.SetCover &&
		catalog.StreamOrder(req.Order) == streamcover.Adversarial
	env := catalog.Env{Workers: req.Workers}
	var rec *stream.Trace
	if *trace {
		rec = &stream.Trace{}
		env.Trace = rec
	}
	var (
		inst *streamcover.Instance
		res  client.SolveResult
		st   *client.SolveTrace // the remote job's trace
		sc   obstrace.SpanContext
	)
	if fileStreamed && !*replay && *server == "" {
		res = solveFileHonest(*in, req, env)
	} else {
		inst = loadInstance(*in, *gen, *n, *m, *opt, *seed)
		defer inst.Unmap()
		printHeader(inst, fileStreamed)
		if *replay {
			env.Plan = func() *streamcover.ReplayPlan { return buildPlan(inst) }
		}
		if *server == "" {
			if res, err = catalog.Run(context.Background(), inst, req, env); err != nil {
				fatal(err)
			}
		} else {
			// With -trace the upload and solve requests propagate one freshly
			// minted traceparent: the server adopts its trace ID, and both
			// request trees merge into one recorded trace rendered below.
			ctx := context.Background()
			if *trace {
				sc = obstrace.SpanContext{TraceID: obstrace.NewTraceID(), SpanID: obstrace.NewSpanID(), Sampled: true}
				ctx = client.WithTraceContext(ctx, sc.Traceparent())
			}
			res, st = solveRemote(ctx, client.New(*server), inst, req)
		}
	}
	fmt.Println(e.Summary(req, res))
	if inst != nil {
		verify(inst, res.Cover, fileStreamed)
	}
	if *trace {
		if *server == "" {
			st = e.Trace(rec)
		}
		printTrace(e, st)
		if *server != "" {
			printRemoteSpanTree(client.New(*server), sc.TraceID.String())
		}
	}
}

// printHeader prints the instance line that precedes every result.
func printHeader(inst *streamcover.Instance, fileStreamed bool) {
	if fileStreamed {
		printFileHeader(inst.N, inst.M())
		return
	}
	st := streamcover.ComputeStats(inst)
	fmt.Printf("instance: n=%d m=%d total=%d words, set sizes %d..%d (mean %.1f)\n",
		st.N, st.M, st.TotalSize, st.MinSize, st.MaxSize, st.MeanSize)
}

func printFileHeader(n, m int) { fmt.Printf("instance (file-streamed): n=%d m=%d\n", n, m) }

// buildPlan records -replay's plan the first time the solver asks for
// one, as coverd builds it.
func buildPlan(inst *streamcover.Instance) *streamcover.ReplayPlan {
	plan, err := streamcover.BuildReplayPlan(inst)
	if err != nil {
		fatal(err)
	}
	// Plan bytes are serving memory, never part of the reported space, so
	// the note goes to stderr and stdout stays diffable.
	fmt.Fprintf(os.Stderr, "replay: plan %d bytes, every pass served from memory\n", plan.Bytes())
	return plan
}

// solveFileHonest runs Algorithm 1 over an instance file whose every pass
// re-reads the file through a file-backed stream — the paper's
// disk-resident model: instances larger than memory work as long as the
// algorithm's own footprint fits, and a mid-pass file error aborts the
// solve. core.SolveFileRNG matches core.Solve's RNG discipline, so the
// result equals the catalog's setcover solve on the decoded instance,
// which is what -replay and a remote (-server) run compute.
func solveFileHonest(path string, req client.SolveRequest, env catalog.Env) client.SolveResult {
	fs, err := stream.Open(path)
	if err != nil {
		fatal(err)
	}
	defer fs.Close()
	printFileHeader(fs.Universe(), fs.Len())
	cfg := core.Config{Alpha: req.Alpha, Epsilon: req.Epsilon, Workers: env.Workers, Trace: env.Trace}
	best, acc, err := core.SolveStream(fs, cfg, core.SolveFileRNG(req.Seed))
	if err != nil {
		fatal(err)
	}
	return client.SolveResult{Cover: best.Cover, Guess: best.Guess, Passes: acc.Passes, SpaceWords: acc.PeakSpace}
}

// solveRemote solves on a coverd daemon: upload (deduplicated by content
// hash), then solve the same normalized request.
func solveRemote(ctx context.Context, c *client.Client, inst *streamcover.Instance, req client.SolveRequest) (client.SolveResult, *client.SolveTrace) {
	up, err := c.UploadInstance(ctx, inst)
	if err != nil {
		fatal(err)
	}
	req.Instance = up.Hash
	job, err := c.Solve(ctx, req)
	if err != nil {
		fatal(err)
	}
	if job.Status != client.StatusDone {
		fatal(fmt.Errorf("remote job %s %s: %s", job.ID, job.Status, job.Error))
	}
	return *job.Result, job.Trace
}

// printTrace prints a solve's timeline on stderr, one line per pass, for
// local and remote solves alike (both in the wire form catalog's
// Entry.Trace makes); stdout is untouched.
func printTrace(e *catalog.Entry, st *client.SolveTrace) {
	switch {
	case !e.Streams:
		fmt.Fprintln(os.Stderr, "trace: offline algorithm, no stream passes")
		return
	case st == nil:
		// A cached remote result carries no trace: the server never re-ran
		// the passes, so there is no timeline to report.
		fmt.Fprintln(os.Stderr, "trace: no per-pass trace (no pass ran, or the server answered from its result cache)")
		return
	}
	if st.Kernel != "" {
		fmt.Fprintf(os.Stderr, "trace: grid kernel %s\n", st.Kernel)
	}
	for _, p := range st.Passes {
		note := ""
		if p.Replayed {
			note = " (replayed)"
		}
		line := fmt.Sprintf("trace: pass %d%s: %s, %d items, space %d words (peak %d)",
			p.Pass, note,
			time.Duration(p.DurationSeconds*float64(time.Second)).Round(time.Microsecond),
			p.Items, p.SpaceWords, p.PeakSpaceWords)
		if p.Live >= 0 {
			line += fmt.Sprintf(", live %d", p.Live)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// printRemoteSpanTree fetches the server's recorded trace and renders the
// span tree on stderr. The solve's root span ends only after the response
// bytes are already on their way back, so the first fetches can race the
// flight-recorder commit — retry briefly before giving up.
func printRemoteSpanTree(c *client.Client, traceID string) {
	var rec client.RecordedTrace
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		rec, err = c.Trace(context.Background(), traceID)
		if err == nil {
			break
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: no server span tree for %s: %v (server running with -trace-buffer 0?)\n", traceID, err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace: server trace %s\n", rec.TraceID)
	printSpans(rec.Spans, 1)
	if rec.DroppedSpans > 0 {
		fmt.Fprintf(os.Stderr, "trace: (%d spans dropped by the recorder's per-trace bound)\n", rec.DroppedSpans)
	}
}

// printSpans renders one level of the span tree, children indented under
// parents: name, duration and sorted attributes.
func printSpans(spans []client.TraceSpan, depth int) {
	for _, s := range spans {
		line := fmt.Sprintf("trace: %s%s %s", strings.Repeat("  ", depth), s.Name,
			time.Duration(s.DurationSeconds*float64(time.Second)).Round(time.Microsecond))
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%v", k, s.Attrs[k])
			}
			line += " (" + strings.Join(parts, " ") + ")"
		}
		fmt.Fprintln(os.Stderr, line)
		printSpans(s.Children, depth+1)
	}
}

// runConvert loads the instance (-in file in any codec, or a generator)
// and rewrites it at the given path in the requested codec. The common
// uses: re-encode a text or SCB1 instance as SCB2 so every later open is
// a zero-copy mmap (covercli -in, coverd -load), or dump an SCB2 file
// back to text for inspection.
func runConvert(outPath, to, in, gen string, n, m, opt int, seed uint64) {
	inst := loadInstance(in, gen, n, m, opt, seed)
	var encode func(io.Writer, *streamcover.Instance) error
	switch to {
	case "scb2":
		encode = streamcover.WriteInstanceSCB2
	case "scb1":
		encode = streamcover.WriteInstanceBinary
	case "text":
		encode = streamcover.WriteInstance
	}
	f, err := os.Create(outPath)
	if err != nil {
		fatal(err)
	}
	if err := encode(f, inst); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fi, err := os.Stat(outPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("converted: %s (%s) n=%d m=%d total=%d, %d bytes\n",
		outPath, to, inst.N, inst.M(), inst.TotalElems(), fi.Size())
}

// loadInstance loads the -in file (SCB2 mapped, SCB1/text decoded) or runs
// the -gen generator, which validateFlags has already checked.
func loadInstance(path, gen string, n, m, opt int, seed uint64) *streamcover.Instance {
	switch {
	case path != "":
		inst, err := setsystem.Load(path)
		if err != nil {
			fatal(err)
		}
		return inst
	case gen == "planted":
		inst, planted := streamcover.GeneratePlanted(seed, n, m, opt)
		fmt.Printf("planted optimum: %d sets %v\n", len(planted), planted)
		return inst
	case gen == "uniform":
		return streamcover.GenerateUniform(seed, n, m, n/16+1, n/4+1)
	case gen == "zipf":
		return streamcover.GenerateZipf(seed, n, m, 1.5, n/4+1)
	default:
		return streamcover.GenerateClustered(seed, n, m, 8, n/8+1)
	}
}

// verify checks the reported cover against the instance. It prints its
// verdict except on the file-streamed shape, which checks quietly.
func verify(inst *streamcover.Instance, cover []int, quiet bool) {
	if !inst.IsCover(cover) {
		fatal(errors.New("INTERNAL ERROR: reported cover does not cover the universe"))
	}
	if !quiet {
		fmt.Println("verified: cover is feasible")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "covercli: %v\n", err)
	os.Exit(1)
}
