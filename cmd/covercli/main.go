// Command covercli solves set cover instances with the streaming and
// offline algorithms in this repository, reporting cover size, passes and
// peak space.
//
// Usage:
//
//	covercli -in instance.sc -algo alg1 -alpha 3
//	covercli -gen planted -n 8192 -m 1024 -opt 6 -algo progressive
//	covercli -gen zipf -n 4096 -m 512 -algo greedy
//	covercli -server http://localhost:8650 -gen planted -alpha 3
//	covercli -in instance.sc -convert instance.scb2            # codec convert
//	covercli -gen zipf -n 4096 -m 512 -convert z.scb -to scb1
//
// Algorithms: alg1 (the paper's Algorithm 1), progressive (threshold-decay
// multi-pass greedy), storeall (buffer stream + offline greedy), greedy
// (offline), exact (offline branch-and-bound).
//
// With -server the solve runs remotely on a coverd daemon: the instance is
// uploaded (deduplicated by content hash) and solved by the service, and
// the result is verified locally. The output is identical to a local run
// with the same flags — that is coverd's determinism-over-the-wire
// contract, and `make serve-smoke` diffs the two outputs to enforce it.
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
	"streamcover/internal/baselines"
	"streamcover/internal/bitset"
	"streamcover/internal/buildinfo"
	"streamcover/internal/core"
	obstrace "streamcover/internal/obs/trace"
	"streamcover/internal/rng"
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
		algo    = flag.String("algo", "alg1", "alg1, progressive, storeall, greedy, exact")
		alpha   = flag.Int("alpha", 2, "approximation parameter α (alg1)")
		eps     = flag.Float64("eps", 0.5, "ε (alg1)")
		order   = flag.String("order", "adversarial", "arrival order: adversarial, random")
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
	if err := validateFlags(*algo, *gen, *order, *in, *convert, *to); err != nil {
		fmt.Fprintf(os.Stderr, "covercli: %v\n", err)
		os.Exit(2)
	}

	if *convert != "" {
		runConvert(*convert, *to, *in, *gen, *n, *m, *opt, *seed)
		return
	}

	if *server != "" {
		runRemote(*server, *in, *gen, *n, *m, *opt, *algo, *alpha, *eps, *order, *seed, *workers, *trace)
		return
	}

	// -trace collects one sample per stream pass; the timeline goes to
	// stderr after the solve so stdout stays diffable (serve-smoke).
	var tr *streamcover.PassTrace
	if *trace {
		tr = &streamcover.PassTrace{}
	}

	// For files, the streaming algorithms consume the file pass by pass
	// without materializing it (stream.FileStream); the in-memory instance
	// is still loaded for stats and verification.
	if *in != "" && *algo == "alg1" && *order == "adversarial" {
		runFileStreaming(*in, *alpha, *eps, *seed, *workers, *replay, tr)
		return
	}
	inst, err := loadInstance(*in, *gen, *n, *m, *opt, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercli: %v\n", err)
		os.Exit(1)
	}
	st := streamcover.ComputeStats(inst)
	fmt.Printf("instance: n=%d m=%d total=%d words, set sizes %d..%d (mean %.1f)\n",
		st.N, st.M, st.TotalSize, st.MinSize, st.MaxSize, st.MeanSize)

	ord := streamcover.Adversarial
	if *order == "random" {
		ord = streamcover.RandomOnce
	}

	switch *algo {
	case "alg1":
		res, err := streamcover.SolveSetCover(inst,
			streamcover.WithAlpha(*alpha), streamcover.WithEpsilon(*eps),
			streamcover.WithOrder(ord), streamcover.WithSeed(*seed),
			streamcover.WithParallelism(*workers), streamcover.WithPassTrace(sinkOf(tr)))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("alg1(α=%d): %s\n", *alpha, res)
		verify(inst, res.Cover)
		printLocalTrace(bitset.GridKernel(), tr)
	case "progressive":
		pg := baselines.NewProgressiveGreedy(inst.N, 2)
		acc := drive(inst, pg, pg.MaxPasses(), ord, *seed, sinkOf(tr))
		cover, ok := pg.Result()
		report("progressive(λ=2)", cover, ok, acc)
		verify(inst, cover)
		printLocalTrace("", tr)
	case "storeall":
		sa := baselines.NewStoreAllGreedy(inst.N)
		acc := drive(inst, sa, 2, ord, *seed, sinkOf(tr))
		cover, ok := sa.Result()
		report("storeall", cover, ok, acc)
		verify(inst, cover)
		printLocalTrace("", tr)
	case "greedy":
		cover, err := streamcover.GreedySetCover(inst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("offline greedy: cover=%d sets\n", len(cover))
		verify(inst, cover)
		traceOfflineNote(*trace)
	case "exact":
		cover, err := streamcover.ExactSetCover(inst)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("offline exact: cover=%d sets (optimal)\n", len(cover))
		verify(inst, cover)
		traceOfflineNote(*trace)
	default:
		fmt.Fprintf(os.Stderr, "covercli: unknown -algo %q\n", *algo)
		os.Exit(2)
	}
}

// sinkOf converts the optional trace collector to a sink, keeping the
// interface untyped-nil when tracing is off (a typed-nil sink would be
// "non-nil" to the drivers and panic on the first pass).
func sinkOf(tr *streamcover.PassTrace) streamcover.TraceSink {
	if tr == nil {
		return nil
	}
	return tr
}

// printLocalTrace prints the collected timeline on stderr. kernel names the
// dispatched grid-kernel body for solves that sweep the guess grid.
func printLocalTrace(kernel string, tr *streamcover.PassTrace) {
	if tr == nil {
		return
	}
	samples := tr.Samples()
	wire := make([]client.PassTrace, len(samples))
	for i, s := range samples {
		wire[i] = client.PassTrace{
			Pass: s.Pass, DurationSeconds: s.Duration.Seconds(), Items: s.Items,
			SpaceWords: s.SpaceWords, PeakSpaceWords: s.PeakSpace,
			Live: s.Live, Replayed: s.Replayed,
		}
	}
	printTrace(kernel, wire)
}

// printTrace is the shared timeline formatter for local samples and remote
// job traces: one stderr line per pass, stdout untouched.
func printTrace(kernel string, passes []client.PassTrace) {
	if kernel != "" {
		fmt.Fprintf(os.Stderr, "trace: grid kernel %s\n", kernel)
	}
	for _, p := range passes {
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

func traceOfflineNote(trace bool) {
	if trace {
		fmt.Fprintln(os.Stderr, "trace: offline algorithm, no stream passes")
	}
}

// runRemote solves on a coverd daemon: upload (deduplicated by content
// hash), solve with the same options, verify the returned cover locally.
// The printed lines deliberately match the local driver byte for byte so
// the serve-smoke target can diff a remote run against a local one.
func runRemote(base, in, gen string, n, m, opt int, algo string, alpha int, eps float64,
	order string, seed uint64, workers int, trace bool) {
	inst, err := loadInstance(in, gen, n, m, opt, seed)
	if err != nil {
		fatal(err)
	}
	// A local `-in file -algo alg1` run with the default adversarial order
	// takes the file-streaming path, whose output has its own shape (no
	// stats or verification lines); mirror it so remote == local holds on
	// every flag combination, not just the in-memory paths.
	fileStreamed := in != "" && algo == "alg1" && order == "adversarial"
	if fileStreamed {
		fmt.Printf("instance (file-streamed): n=%d m=%d\n", inst.N, inst.M())
	} else {
		st := streamcover.ComputeStats(inst)
		fmt.Printf("instance: n=%d m=%d total=%d words, set sizes %d..%d (mean %.1f)\n",
			st.N, st.M, st.TotalSize, st.MinSize, st.MaxSize, st.MeanSize)
	}

	ctx := context.Background()
	c := client.New(base)
	// With -trace the upload and solve requests propagate one freshly
	// minted traceparent: the server adopts its trace ID, and both request
	// trees merge into one recorded trace fetched and rendered below.
	var sc obstrace.SpanContext
	if trace {
		sc = obstrace.SpanContext{
			TraceID: obstrace.NewTraceID(), SpanID: obstrace.NewSpanID(), Sampled: true,
		}
		ctx = client.WithTraceContext(ctx, sc.Traceparent())
	}
	up, err := c.UploadInstance(ctx, inst)
	if err != nil {
		fatal(err)
	}
	job, err := c.Solve(ctx, client.SolveRequest{
		Instance: up.Hash, Algo: algo, Alpha: alpha, Epsilon: eps,
		Order: order, Seed: seed, Workers: workers,
	})
	if err != nil {
		fatal(err)
	}
	if job.Status != client.StatusDone {
		fatal(fmt.Errorf("remote job %s %s: %s", job.ID, job.Status, job.Error))
	}
	res := job.Result
	switch algo {
	case "alg1":
		fmt.Printf("alg1(α=%d): %s\n", alpha, streamcover.SetCoverResult{
			Cover: res.Cover, Guess: res.Guess, Passes: res.Passes, SpaceWords: res.SpaceWords,
		})
		if fileStreamed {
			// The file-streaming path prints no verification line; verify
			// quietly to keep the output diffable while still checking.
			if !inst.IsCover(res.Cover) {
				fatal(fmt.Errorf("INTERNAL ERROR: remote cover does not cover the universe"))
			}
		} else {
			verify(inst, res.Cover)
		}
	case "progressive":
		fmt.Printf("progressive(λ=2): cover=%d sets, %d passes, %d words\n",
			len(res.Cover), res.Passes, res.SpaceWords)
		verify(inst, res.Cover)
	case "storeall":
		fmt.Printf("storeall: cover=%d sets, %d passes, %d words\n",
			len(res.Cover), res.Passes, res.SpaceWords)
		verify(inst, res.Cover)
	case "greedy":
		fmt.Printf("offline greedy: cover=%d sets\n", len(res.Cover))
		verify(inst, res.Cover)
	case "exact":
		fmt.Printf("offline exact: cover=%d sets (optimal)\n", len(res.Cover))
		verify(inst, res.Cover)
	}
	if trace {
		switch {
		case job.Trace != nil:
			printTrace(job.Trace.Kernel, job.Trace.Passes)
		case algo == "greedy" || algo == "exact":
			traceOfflineNote(true)
		default:
			// A cached result carries no trace: the server never re-ran the
			// passes, so there is no timeline to report.
			fmt.Fprintln(os.Stderr, "trace: server returned no per-pass trace (result-cache hit?)")
		}
		printRemoteSpanTree(c, sc.TraceID.String())
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
// parents: name, duration, sorted attributes, and an event tally.
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
		if len(s.Events) > 0 {
			line += fmt.Sprintf(" [%d events]", len(s.Events))
		}
		fmt.Fprintln(os.Stderr, line)
		printSpans(s.Children, depth+1)
	}
}

// runFileStreaming runs Algorithm 1 over an instance file. By default each
// pass re-reads the file through a file-backed stream — the paper's
// disk-resident model: instances larger than memory work as long as the
// algorithm's own footprint fits, and a mid-pass file error aborts the
// solve. With -replay the file is loaded once and every pass is served
// from a replay plan, coverd's path for a resident instance. Both print the
// same stdout: core.SolveFileRNG matches core.Solve's RNG discipline, so
// either equals SolveSetCover on the decoded instance — which is also what
// a remote (-server) run computes.
func runFileStreaming(path string, alpha int, eps float64, seed uint64, workers int, replay bool,
	tr *streamcover.PassTrace) {
	solve := solveFileHonest
	if replay {
		solve = solveFileReplay
	}
	res, err := solve(path, alpha, eps, seed, workers, sinkOf(tr))
	if err != nil {
		if errors.Is(err, streamcover.ErrInfeasible) {
			fmt.Println("alg1: infeasible (universe not coverable)")
			os.Exit(1)
		}
		fatal(err)
	}
	fmt.Printf("alg1(α=%d): %s\n", alpha, res)
	printLocalTrace(bitset.GridKernel(), tr)
}

func solveFileHonest(path string, alpha int, eps float64, seed uint64, workers int,
	sink streamcover.TraceSink) (streamcover.SetCoverResult, error) {
	fs, err := stream.Open(path)
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	defer fs.Close()
	fmt.Printf("instance (file-streamed): n=%d m=%d\n", fs.Universe(), fs.Len())
	cfg := core.Config{Alpha: alpha, Epsilon: eps, Workers: workers, Trace: sink}
	best, acc, err := core.SolveStream(fs, cfg, core.SolveFileRNG(seed))
	return streamcover.SetCoverResult{
		Cover: best.Cover, Guess: best.Guess, Passes: acc.Passes, SpaceWords: acc.PeakSpace,
	}, err
}

func solveFileReplay(path string, alpha int, eps float64, seed uint64, workers int,
	sink streamcover.TraceSink) (streamcover.SetCoverResult, error) {
	inst, err := setsystem.Load(path)
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	defer inst.Unmap()
	fmt.Printf("instance (file-streamed): n=%d m=%d\n", inst.N, inst.M())
	plan, err := streamcover.BuildReplayPlan(inst)
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	// Plan bytes are serving memory, never part of the reported space, so
	// the note goes to stderr and stdout stays diffable against -replay=false.
	fmt.Fprintf(os.Stderr, "replay: plan %d bytes, every pass served from memory\n", plan.Bytes())
	return streamcover.SolveSetCover(inst,
		streamcover.WithAlpha(alpha), streamcover.WithEpsilon(eps), streamcover.WithSeed(seed),
		streamcover.WithParallelism(workers), streamcover.WithReplayPlan(plan), streamcover.WithPassTrace(sink))
}

// runConvert loads the instance (-in file in any codec, or a generator)
// and rewrites it at the given path in the requested codec. The common
// uses: re-encode a text or SCB1 instance as SCB2 so every later open is
// a zero-copy mmap (covercli -in, coverd -load), or dump an SCB2 file
// back to text for inspection.
func runConvert(outPath, to, in, gen string, n, m, opt int, seed uint64) {
	inst, err := loadInstance(in, gen, n, m, opt, seed)
	if err != nil {
		fatal(err)
	}
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

func loadInstance(path, gen string, n, m, opt int, seed uint64) (*streamcover.Instance, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return streamcover.ReadInstance(f)
	}
	switch gen {
	case "planted":
		inst, planted := streamcover.GeneratePlanted(seed, n, m, opt)
		fmt.Printf("planted optimum: %d sets %v\n", len(planted), planted)
		return inst, nil
	case "uniform":
		return streamcover.GenerateUniform(seed, n, m, n/16+1, n/4+1), nil
	case "zipf":
		return streamcover.GenerateZipf(seed, n, m, 1.5, n/4+1), nil
	case "clustered":
		return streamcover.GenerateClustered(seed, n, m, 8, n/8+1), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func drive(inst *setsystem.Instance, alg stream.PassAlgorithm, maxPasses int,
	ord streamcover.Order, seed uint64, sink stream.TraceSink) stream.Accounting {
	var r *rng.RNG
	if ord != streamcover.Adversarial {
		r = rng.New(seed)
	}
	s := stream.FromInstance(inst, ord, r)
	acc, err := stream.RunTraced(context.Background(), s, alg, maxPasses, sink)
	if err != nil {
		fatal(err)
	}
	return acc
}

func report(name string, cover []int, ok bool, acc stream.Accounting) {
	if !ok {
		fmt.Printf("%s: infeasible (universe not coverable)\n", name)
		os.Exit(1)
	}
	fmt.Printf("%s: cover=%d sets, %d passes, %d words\n", name, len(cover), acc.Passes, acc.PeakSpace)
}

func verify(inst *streamcover.Instance, cover []int) {
	if !inst.IsCover(cover) {
		fmt.Fprintln(os.Stderr, "covercli: INTERNAL ERROR: reported cover does not cover the universe")
		os.Exit(1)
	}
	fmt.Println("verified: cover is feasible")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "covercli: %v\n", err)
	os.Exit(1)
}
