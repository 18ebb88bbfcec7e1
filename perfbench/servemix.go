package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/registry"
	"streamcover/internal/service"
)

// The serve-mix instances are small planted ones of one shape, solved at α
// 2 and 3 alternately, sized so a median solve takes tens of milliseconds.
// One shape keeps the miss latencies in one mode, so their median does
// not jump between instance sizes from seed to seed.
func serveShape(smoke bool) (sh shape, count int) {
	if smoke {
		return shape{512, 64, 3}, 2
	}
	return shape{2048, 256, 4}, 6
}

// serveRate is the open phase's offered load in operations per second:
// about a third of the closed-loop capacity measured on the recording box
// (see README.md). It is part of the workload, so a faster build is
// measured at the same offered load as its parent.
const serveRate = 40

type serveInst struct {
	inst  *streamcover.Instance
	alpha int
	body  []byte // SCB1 upload bytes, encoded once up front
	hash  string // learned from the first upload
}

// serveInputs are the generated instances; insts[0] is also written as
// SCB2 and preloaded with coverd -load, so the mmap path serves it.
type serveInputs struct {
	insts   []*serveInst
	preload string
}

func makeServeInputs(e *env) (*serveInputs, error) {
	var insts []*streamcover.Instance
	var alphas []int
	sh, count := serveShape(e.smoke)
	for i := 0; i < count; i++ {
		inst, _ := streamcover.GeneratePlanted(derive(e.seed, "serve-instance-"+strconv.Itoa(i)), sh.n, sh.m, sh.opt)
		insts = append(insts, inst)
		alphas = append(alphas, 2+i%2)
	}
	return newServeInputs(e, insts, alphas, "")
}

// newServeInputs encodes the upload bytes and, unless preload names an
// existing SCB2 file of insts[0], writes one.
func newServeInputs(e *env, insts []*streamcover.Instance, alphas []int, preload string) (*serveInputs, error) {
	in := &serveInputs{preload: preload}
	for i, inst := range insts {
		var buf bytes.Buffer
		if err := streamcover.WriteInstanceBinary(&buf, inst); err != nil {
			return nil, err
		}
		in.insts = append(in.insts, &serveInst{inst: inst, alpha: alphas[i], body: buf.Bytes()})
	}
	if in.preload == "" {
		in.preload = filepath.Join(e.work, "preload.scb2")
		if err := writeInstance(in.preload, insts[0], streamcover.WriteInstanceSCB2); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Operation kinds of the mix.
type opKind int

const (
	opSolve  opKind = iota // upload, then POST /v1/solve?wait with a fresh seed
	opRepeat               // an exact repeat of an earlier solve: a cache hit
	opAsync                // upload, submit, watch to the end
	opCancel               // upload, submit, cancel, watch to the end
)

var kindNames = [...]string{"solve", "repeat", "async", "cancel"}

type op struct {
	kind  opKind
	inst  int
	seed  uint64
	check bool // compare the cover with the in-process reference
}

// mixGen draws the seeded operation sequence. Shares: about a quarter
// exact repeats, small shares of async and cancel, the rest fresh solves.
type mixGen struct {
	mu     sync.Mutex
	r      splitmix
	ninst  int
	solves []op // earlier fresh solves, the candidates for repeats
}

// repeatLag keeps repeats at least this many fresh solves behind the
// newest, so the repeated request has almost always finished (and sits in
// the result cache) by the time it is sent again.
const repeatLag = 16

func (g *mixGen) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.r.float()
	o := op{inst: g.r.intn(g.ninst), seed: g.r.next()%1_000_000_000 + 1, check: g.r.float() < 0.1}
	pick := g.r.next()
	switch {
	case u < 0.25 && len(g.solves) > repeatLag:
		o = g.solves[pick%uint64(len(g.solves)-repeatLag)]
		o.kind = opRepeat
	case u >= 0.25 && u < 0.31:
		o.kind = opAsync
	case u >= 0.31 && u < 0.36:
		o.kind = opCancel
	default:
		o.kind = opSolve
		g.solves = append(g.solves, o)
	}
	return o
}

// opResult is one executed operation, timed from its due time.
type opResult struct {
	op       op
	due      time.Time     // scheduled arrival (open loop) or draw (closed loop)
	late     time.Duration // how late the generator dispatched it
	connWait time.Duration // due → first request sent
	end      time.Time
	upload   time.Duration
	solveRT  time.Duration // the POST /v1/solve?wait round trip
	job      client.Job
	err      error
}

func (r *opResult) rt() time.Duration { return r.end.Sub(r.due) }

// target is a coverd endpoint as the generator sees it: the public client
// over at most nproc keep-alive connections.
type target struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	c    *client.Client
}

func newTarget(base string, conns int) *target {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	hc := &http.Client{Transport: tr}
	return &target{base: base, tr: tr, hc: hc, c: client.New(base, client.WithHTTPClient(hc))}
}

// mix runs operations against one target and tallies the outcomes.
type mix struct {
	e     *env
	in    *serveInputs
	t     *target
	gen   *mixGen
	conns int
	rec   *recorder // nil: the benchmark's spans are off

	mu      sync.Mutex
	results []*opResult
	uploads int // uploads sent, setup included
}

func newMix(e *env, in *serveInputs, t *target, label string, rec *recorder) *mix {
	return &mix{e: e, in: in, t: t, conns: e.nproc, rec: rec,
		gen: &mixGen{r: splitmix{derive(e.seed, "serve-mix-"+label)}, ninst: len(in.insts)}}
}

// exec runs one operation end to end, recording spans around each client
// call when tracing.
func (m *mix) exec(ctx context.Context, r *opResult) {
	start := time.Now()
	r.connWait = start.Sub(r.due)
	id := m.rec.reserve(0, "load.op")
	defer func() {
		r.end = time.Now()
		m.rec.fill(id, start, r.end.Sub(start), map[string]any{"kind": int(r.op.kind), "instance": r.op.inst})
	}()
	si := m.in.insts[r.op.inst]
	var up client.UploadResponse
	r.upload = m.rec.time(id, "client.upload", func() {
		up, r.err = m.t.c.UploadReader(ctx, bytes.NewReader(si.body))
	})
	m.mu.Lock()
	m.uploads++
	m.mu.Unlock()
	if r.err != nil {
		return
	}
	if si.hash != "" && up.Hash != si.hash {
		r.err = fmt.Errorf("upload hash %s, want %s", up.Hash, si.hash)
		return
	}
	req := client.SolveRequest{Instance: up.Hash, Alpha: si.alpha, Seed: r.op.seed}
	switch r.op.kind {
	case opSolve, opRepeat:
		r.solveRT = m.rec.time(id, "client.solve", func() { r.job, r.err = m.t.c.Solve(ctx, req) })
	case opAsync, opCancel:
		var j client.Job
		m.rec.time(id, "client.submit", func() { j, r.err = m.t.c.Submit(ctx, req) })
		if r.err != nil {
			return
		}
		if r.op.kind == opCancel && !j.Status.Terminal() {
			m.rec.time(id, "client.cancel", func() { _, r.err = m.t.c.Cancel(ctx, j.ID) })
			if r.err != nil {
				return
			}
		}
		m.rec.time(id, "client.watch", func() { r.job, r.err = m.t.c.Watch(ctx, j.ID, nil) })
	}
}

func (m *mix) keep(rs ...*opResult) {
	m.mu.Lock()
	m.results = append(m.results, rs...)
	m.mu.Unlock()
}

// open offers seeded Poisson arrivals at rate for d and returns the
// results. Up to conns workers take arrivals in order; an arrival waiting
// for a free worker keeps its due time, so the wait counts in its round
// trip.
func (m *mix) open(ctx context.Context, rate float64, d time.Duration) []*opResult {
	r := splitmix{derive(m.e.seed, "serve-arrivals")}
	var (
		sched   []*opResult
		offsets []time.Duration
	)
	for t := 0.0; ; {
		t += -math.Log(1-r.float()) / rate
		if t >= d.Seconds() {
			break
		}
		sched = append(sched, &opResult{op: m.gen.next()})
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	ch := make(chan *opResult, len(sched)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < m.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range ch {
				m.exec(ctx, res)
			}
		}()
	}
	start := time.Now()
	for i, res := range sched {
		res.due = start.Add(offsets[i])
		time.Sleep(time.Until(res.due))
		res.late = time.Since(res.due)
		ch <- res
	}
	close(ch)
	wg.Wait()
	m.keep(sched...)
	return sched
}

// closed runs conns clients back to back for d and returns the results and
// the phase's wall time.
func (m *mix) closed(ctx context.Context, d time.Duration) ([]*opResult, time.Duration) {
	var (
		mu  sync.Mutex
		all []*opResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < m.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				res := &opResult{op: m.gen.next(), due: time.Now()}
				m.exec(ctx, res)
				mu.Lock()
				all = append(all, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	m.keep(all...)
	return all, elapsed
}

// setup uploads every instance (the preloaded one must deduplicate against
// its mmap'd twin) and solves each once, which builds its replay plan.
func (m *mix) setup(ctx context.Context) (traceIDs []string, err error) {
	for i, si := range m.in.insts {
		up, err := m.t.c.UploadReader(ctx, bytes.NewReader(si.body))
		m.uploads++
		if err != nil {
			return nil, fmt.Errorf("setup upload: %w", err)
		}
		if si.hash == "" {
			si.hash = up.Hash
		} else if up.Hash != si.hash {
			m.e.wrong("instance %d hashed %s, earlier %s", i, up.Hash, si.hash)
		}
		if i == 0 && up.Added && m.in.preload != "" {
			m.e.wrong("upload of the preloaded instance was not deduplicated")
		}
	}
	for i := range m.in.insts {
		res := &opResult{op: op{kind: opSolve, inst: i, seed: derive(m.e.seed, "serve-setup") % 1_000_000}, due: time.Now()}
		m.exec(ctx, res)
		m.keep(res)
		if res.err != nil {
			return nil, fmt.Errorf("setup solve: %w", res.err)
		}
		if res.job.TraceID != "" {
			traceIDs = append(traceIDs, res.job.TraceID)
		}
	}
	return traceIDs, nil
}

// tally is the client-side count of terminal outcomes.
type tally struct {
	done, canceled, failed, rejected, errors int
	degraded                                 int // canceled jobs that ended done with a different cover
}

// judge checks every result once: failures counted against attempts, every
// returned cover checked with IsCover, and the checked subset compared
// with the in-process reference.
func (m *mix) judge() tally {
	var t tally
	refs := map[[2]uint64]streamcover.SetCoverResult{}
	for _, r := range m.results {
		m.e.attempted++
		if r.err != nil {
			var apiErr *client.APIError
			if errors.As(r.err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
				t.rejected++
			} else {
				t.errors++
			}
			m.e.fail("%v", r.err)
			continue
		}
		si := m.in.insts[r.op.inst]
		switch r.job.Status {
		case client.StatusDone:
			t.done++
			if r.job.Result == nil || !si.inst.IsCover(r.job.Result.Cover) {
				m.e.wrong("job %s returned a non-cover", r.job.ID)
				continue
			}
			// A cancel that lands inside a store pass's exact sub-solve can
			// fail the guesses still running, and the job then ends done with
			// a valid but different cover. That is a defect of the service,
			// counted on its own (service.cancel_degraded), not a failure of
			// the operation: the client asked for the job to stop.
			if !r.op.check && r.op.kind != opCancel {
				continue
			}
			key := [2]uint64{uint64(r.op.inst), r.op.seed}
			want, ok := refs[key]
			if !ok {
				var err error
				want, err = streamcover.SolveSetCover(si.inst, streamcover.WithAlpha(si.alpha), streamcover.WithSeed(r.op.seed))
				if err != nil {
					m.e.fail("reference solve: %v", err)
					continue
				}
				refs[key] = want
			}
			got := streamcover.SetCoverResult{Cover: r.job.Result.Cover, Guess: r.job.Result.Guess,
				Passes: r.job.Result.Passes, SpaceWords: r.job.Result.SpaceWords}
			switch {
			case sameResult(got, want):
			case r.op.kind == opCancel:
				t.degraded++
			default:
				m.e.wrong("job %s (%s): %v, in-process reference %v", r.job.ID, kindNames[r.op.kind], got, want)
			}
		case client.StatusCanceled:
			t.canceled++
			if r.op.kind != opCancel {
				m.e.fail("job %s canceled without being asked", r.job.ID)
			}
		default:
			t.failed++
			m.e.fail("job %s ended %s: %s", r.job.ID, r.job.Status, r.job.Error)
		}
	}
	return t
}

// hygiene waits for the service to go idle, then checks that nothing is
// left running, queued or pinned and that the scheduler's counters match
// the client's tally.
func (m *mix) hygiene(ctx context.Context, t tally) client.StatsResponse {
	var st client.StatsResponse
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		st, err = m.t.c.Stats(ctx)
		if err == nil && st.Scheduler.Running == 0 && st.Scheduler.Queued == 0 && st.Registry.Pinned == 0 {
			break
		}
	}
	switch {
	case err != nil:
		m.e.fail("stats: %v", err)
	case st.Scheduler.Running != 0 || st.Scheduler.Queued != 0 || st.Registry.Pinned != 0:
		m.e.wrong("service not idle after the load: running=%d queued=%d pinned=%d",
			st.Scheduler.Running, st.Scheduler.Queued, st.Registry.Pinned)
	case t.errors == 0 && (int(st.Scheduler.Completed) != t.done || int(st.Scheduler.Canceled) != t.canceled ||
		int(st.Scheduler.Failed) != t.failed):
		m.e.wrong("scheduler counted completed=%d canceled=%d failed=%d, client saw %d/%d/%d",
			st.Scheduler.Completed, st.Scheduler.Canceled, st.Scheduler.Failed, t.done, t.canceled, t.failed)
	}
	return st
}

// rts returns the round trips of an open phase; a failed or refused
// operation counts as lasting the whole phase, above any latency limit.
func rts(rs []*opResult, phase time.Duration) []float64 {
	var out []float64
	for _, r := range rs {
		d := r.rt()
		if r.err != nil || (r.job.Status != client.StatusDone && r.op.kind != opCancel) {
			d = max(d, phase)
		}
		out = append(out, d.Seconds())
	}
	return out
}

func okCount(rs []*opResult) int {
	n := 0
	for _, r := range rs {
		if r.err == nil && (r.job.Status == client.StatusDone || (r.op.kind == opCancel && r.job.Status == client.StatusCanceled)) {
			n++
		}
	}
	return n
}

// daemon is a coverd process started from the bin directory.
type daemon struct {
	cmd     *exec.Cmd
	stdout  bytes.Buffer
	stderr  bytes.Buffer
	base    string
	debug   string
	done    chan struct{}
	waitErr error
}

var daemons int

// startDaemon starts coverd with its default flags on a random loopback
// port, preloading the SCB2 file, and returns once it is listening.
func startDaemon(e *env, preload string, debug bool) (*daemon, error) {
	daemons++
	addrFile := filepath.Join(e.work, fmt.Sprintf("coverd-%d.addr", daemons))
	debugFile := addrFile + ".debug"
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-load", preload}
	if debug {
		args = append(args, "-debug-addr", "127.0.0.1:0", "-debug-addr-file", debugFile)
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.bin, "coverd"), args...)
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		addr := readAddr(addrFile)
		dbg := ""
		if debug {
			dbg = readAddr(debugFile)
		}
		if addr != "" && (!debug || dbg != "") {
			d.base, d.debug = "http://"+addr, dbg
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("coverd exited before listening: %v: %s", d.waitErr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("coverd did not start listening within 20s")
		}
	}
}

func readAddr(path string) string {
	buf, err := os.ReadFile(path)
	if err != nil || !bytes.HasSuffix(buf, []byte("\n")) {
		return ""
	}
	return strings.TrimSpace(string(buf))
}

// stop sends SIGTERM, waits for the exit, checks the shutdown line and
// returns the daemon's peak RSS.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return 0, errors.New("coverd did not exit within 20s of SIGTERM")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("coverd exit: %v: %s", d.waitErr, d.stderr.String())
	}
	if !strings.Contains(d.stdout.String(), "coverd: bye") {
		return 0, fmt.Errorf("coverd did not print %q on SIGTERM: %q", "coverd: bye", d.stdout.String())
	}
	return childRSSMB(d.cmd), nil
}

// kill stops the daemon on error paths and waits for it to end.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill() // the wait below confirms the exit
		<-d.done
	}
}

// serveSetup starts a fresh daemon and brings it to the state the load
// runs against: listening, preloaded, every instance uploaded and solved
// once (building its replay plan lazily). It returns the set-up wall time.
func serveSetup(e *env, in *serveInputs, debug bool) (*daemon, *mix, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(e, in.preload, debug)
	if err != nil {
		return nil, nil, 0, err
	}
	m := newMix(e, in, newTarget(d.base, e.nproc), "coverd", nil)
	if _, err := m.setup(context.Background()); err != nil {
		d.kill()
		return nil, nil, 0, err
	}
	return d, m, time.Since(start), nil
}

// Open and closed phase shares of the measured time.
const openShare = 0.5

// runServeMix is the serve-mix end-to-end leg against the coverd binary.
func runServeMix(e *env) error {
	in, err := makeServeInputs(e)
	if err != nil {
		return err
	}
	// Set-up runs three times on fresh daemons; the median is setup_s and
	// the last daemon takes the load.
	var setups []time.Duration
	var d *daemon
	var m *mix
	for i := 0; i < 3; i++ {
		if d != nil {
			e.attempted++
			if _, err := d.stop(); err != nil {
				e.fail("%v", err)
			}
		}
		var wall time.Duration
		if d, m, wall, err = serveSetup(e, in, false); err != nil {
			return err
		}
		setups = append(setups, wall)
	}
	defer d.kill()
	e.set("setup_s", "s", median(seconds(setups)))
	ctx := context.Background()
	openD := time.Duration(float64(e.seconds) * openShare)
	rss := sampleRSS(d.cmd.Process.Pid)
	open := m.open(ctx, serveRate, openD)
	closed, elapsed := m.closed(ctx, e.seconds-openD)
	samples := rss.finish()
	t := m.judge()
	m.hygiene(ctx, t)
	m.t.tr.CloseIdleConnections()
	e.attempted++
	peak, err := d.stop()
	if err != nil {
		e.fail("%v", err)
	}
	if len(open) == 0 || len(closed) == 0 {
		return errNoOps
	}
	e.set("op_p50_s", "s", median(rts(open, openD)))
	e.set("ops_per_s", "1/s", float64(okCount(closed))/elapsed.Seconds())
	e.set("rss_mb", "MB", median(samples))
	fmt.Fprintf(e.stdout, "coverd peak RSS %.1f MB; %d open-phase round trips\n", peak, len(open))
	return nil
}

// inproc is a registry + scheduler + server built with coverd's default
// options, served on a loopback listener inside the benchmark process, so
// the traced run can read the layers directly.
type inproc struct {
	sched  *service.Scheduler
	srv    *http.Server
	base   string
	served chan error
}

func startInproc(preload string) (*inproc, error) {
	p := &inproc{served: make(chan error, 1)}
	metrics := obs.NewRegistry()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil)) // coverd logs at info to stderr
	reg := registry.New(registry.Config{BudgetBytes: 256 << 20})
	reg.RegisterMetrics(metrics)
	if _, _, err := reg.LoadFile(preload); err != nil {
		return nil, err
	}
	p.sched = service.NewScheduler(reg, service.Config{Metrics: metrics, Logger: logger})
	h := service.NewServer(reg, p.sched, 1024<<20, service.WithMetrics(metrics), service.WithLogger(logger),
		service.WithTracing(trace.NewTracer(trace.DefaultCapacity, 0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.sched.Stop()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: h}
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // Serve's result below reports the outcome
	<-p.served
	p.sched.Stop()
}

// serveLeg is what a traced in-process serve leg measured.
type serveLeg struct {
	results   []*opResult
	open      []*opResult
	stats     client.StatsResponse
	metrics   string
	uploads   int
	tally     tally
	submitRes []time.Duration // direct SubmitContext → Wait
	planSpans int
	reused    int
}

// inprocLeg runs the mix against an in-process server: setup, an open
// phase at rate (skipped when rate is 0), a closed phase, then direct
// scheduler calls and a read of coverd's own plan spans.
func inprocLeg(e *env, in *serveInputs, rec *recorder, rate float64, d time.Duration) (*serveLeg, error) {
	p, err := startInproc(in.preload)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	t := newTarget(p.base, e.nproc)
	defer t.tr.CloseIdleConnections()
	m := newMix(e, in, t, "inproc", rec)
	ctx := context.Background()
	traceIDs, err := m.setup(ctx)
	if err != nil {
		return nil, err
	}
	// Set-up built every plan, so its plan spans must say reused=false.
	for _, id := range traceIDs {
		if spans, reused := countPlanSpans(ctx, t.c, id, 0, 0); reused != 0 {
			e.wrong("set-up solve reused a plan (%d of %d plan spans)", reused, spans)
		}
	}
	leg := &serveLeg{}
	openD := time.Duration(0)
	if rate > 0 {
		openD = time.Duration(float64(d) * openShare)
		leg.open = m.open(ctx, rate, openD)
	}
	m.closed(ctx, d-openD)
	// Direct scheduler calls on the same mix, with no HTTP in between.
	for i := range in.insts {
		si := in.insts[i]
		req := service.SolveRequest{Instance: si.hash, Alpha: si.alpha, Seed: derive(e.seed, "direct")%1_000_000 + uint64(i), NoCache: true}
		e.attempted++
		start := time.Now()
		job, err := p.sched.SubmitContext(ctx, req)
		if err == nil {
			job, err = p.sched.Wait(ctx, job.ID)
		}
		if err != nil || job.Status != client.StatusDone || !si.inst.IsCover(job.Result.Cover) {
			e.fail("direct scheduler solve: %v %s", err, job.Status)
			continue
		}
		leg.submitRes = append(leg.submitRes, time.Since(start))
		// One more solve per instance over HTTP; its plan span should reuse
		// the attached plan. coverd's flight recorder keeps only the latest
		// traces, so the trace is read at once.
		res := &opResult{op: op{kind: opSolve, inst: i, seed: req.Seed + 1_000_000}, due: time.Now()}
		m.exec(ctx, res)
		m.keep(res)
		if res.err == nil && res.job.TraceID != "" {
			leg.planSpans, leg.reused = countPlanSpans(ctx, t.c, res.job.TraceID, leg.planSpans, leg.reused)
		}
	}
	leg.tally = m.judge()
	leg.tally.done += len(leg.submitRes) // the direct solves finished too
	leg.stats = m.hygiene(ctx, leg.tally)
	leg.results, leg.uploads = m.results, m.uploads
	leg.metrics = fetchMetrics(ctx, t)
	return leg, nil
}

// countPlanSpans reads one recorded trace and counts coverd's "plan"
// spans and how many of them reused an attached plan. The trace commits
// just after the response, so a 404 is retried briefly.
func countPlanSpans(ctx context.Context, c *client.Client, id string, spans, reused int) (int, int) {
	var rt client.RecordedTrace
	var err error
	for i := 0; i < 40; i++ {
		if rt, err = c.Trace(ctx, id); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	var walk func([]client.TraceSpan)
	walk = func(ss []client.TraceSpan) {
		for _, s := range ss {
			if s.Name == "plan" {
				spans++
				if b, _ := s.Attrs["reused"].(bool); b {
					reused++
				}
			}
			walk(s.Children)
		}
	}
	walk(rt.Spans)
	return spans, reused
}

func fetchMetrics(ctx context.Context, t *target) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/metrics", nil)
	if err != nil {
		return ""
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body) // a short read leaves the cross-check empty
	return string(buf)
}

// routeMean returns _sum/_count of coverd_http_request_duration_seconds
// for one route of the exposition.
func routeMean(exposition, route string) float64 {
	var sum, count float64
	label := `{route="` + route + `"}`
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ') // label values may hold spaces
		if i < 0 {
			continue
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "coverd_http_request_duration_seconds_sum" + label:
			sum = v
		case "coverd_http_request_duration_seconds_count" + label:
			count = v
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

// setServeLayers records the per-layer service, registry and HTTP metrics
// of a traced serve leg.
func setServeLayers(e *env, leg *serveLeg) {
	var uploads, overhead, queue, run, connWait, rtAll []float64
	for _, r := range leg.results {
		if r.err != nil {
			continue
		}
		uploads = append(uploads, r.upload.Seconds())
		connWait = append(connWait, r.connWait.Seconds())
		rtAll = append(rtAll, r.rt().Seconds())
		j := r.job
		if j.Status != client.StatusDone || j.CacheHit || j.Started == nil || j.Finished == nil {
			continue
		}
		queue = append(queue, j.Started.Sub(j.Created).Seconds())
		run = append(run, j.Finished.Sub(*j.Started).Seconds())
		if r.solveRT > 0 {
			overhead = append(overhead, (r.solveRT - j.Finished.Sub(j.Created)).Seconds())
		}
	}
	if len(leg.open) > 0 {
		connWait = connWait[:0]
		for _, r := range leg.open {
			connWait = append(connWait, r.connWait.Seconds())
		}
	}
	e.set("http.upload_s", "s", median(uploads))
	e.set("http.solve_overhead_s", "s", median(overhead))
	e.set("http.conn_wait_p99_s", "s", quantile(connWait, 0.99))
	e.set("http.server_upload_mean_s", "s", routeMean(leg.metrics, "POST /v1/instances"))
	e.set("http.server_solve_mean_s", "s", routeMean(leg.metrics, "POST /v1/solve"))
	e.set("service.queue_wait_p50_s", "s", quantile(queue, 0.5))
	e.set("service.queue_wait_p99_s", "s", quantile(queue, 0.99))
	e.set("service.run_p50_s", "s", median(run))
	e.set("service.submit_to_result_s", "s", median(seconds(leg.submitRes)))
	st := leg.stats
	e.set("service.cache_hit_ratio", "ratio", float64(st.Scheduler.CacheHits)/math.Max(1, float64(st.Scheduler.Submitted)))
	e.set("service.plan_reuse_ratio", "ratio", float64(leg.reused)/math.Max(1, float64(leg.planSpans)))
	e.set("service.failed", "count", float64(leg.tally.failed+leg.tally.errors))
	e.set("service.rejected", "count", float64(leg.tally.rejected))
	e.set("service.canceled", "count", float64(leg.tally.canceled))
	e.set("service.cancel_degraded", "count", float64(leg.tally.degraded))
	e.set("registry.dedup_ratio", "ratio", float64(st.Registry.DedupHits)/math.Max(1, float64(leg.uploads)))
	e.set("registry.evictions", "count", float64(st.Registry.Evictions))
	if _, ok := e.metrics["load.rt_p99_s"]; !ok {
		e.set("load.rt_p99_s", "s", quantile(rtAll, 0.99))
	}
}

// goroutines reads the daemon's goroutine count from -debug-addr.
func goroutines(t *target, debug string) (int, error) {
	resp, err := t.hc.Get("http://" + debug + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		return 0, err
	}
	_, n, ok := strings.Cut(strings.TrimSpace(line), "total ")
	if !ok {
		return 0, fmt.Errorf("unexpected goroutine profile header %q", line)
	}
	return strconv.Atoi(n)
}

// settledGoroutines closes the generator's idle connections and waits for
// the daemon's goroutine count to settle at or below limit (or reports the
// last reading).
func settledGoroutines(t *target, debug string, limit int) (int, error) {
	var n int
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		t.tr.CloseIdleConnections()
		if n, err = goroutines(t, debug); err == nil && n <= limit {
			break
		}
	}
	return n, err
}

// traceServeMix is the traced serve-mix run: the coverd binary (untraced,
// with -debug-addr for the goroutine check), then the same mix against an
// in-process server with the benchmark's spans off and on.
func traceServeMix(e *env) error {
	in, err := makeServeInputs(e)
	if err != nil {
		return err
	}
	third := e.seconds / 3
	d, m, _, err := serveSetup(e, in, true)
	if err != nil {
		return err
	}
	defer d.kill()
	ctx := context.Background()
	base, err := settledGoroutines(m.t, d.debug, math.MaxInt)
	if err != nil {
		return err
	}
	open := m.open(ctx, serveRate, third)
	t := m.judge()
	m.hygiene(ctx, t)
	if n, err := settledGoroutines(m.t, d.debug, base); err != nil || n > base {
		e.wrong("coverd goroutines %d after the load, %d before it (%v)", n, base, err)
	}
	e.attempted++
	if _, err := d.stop(); err != nil {
		e.fail("%v", err)
	}
	var lates []float64
	for _, r := range open {
		lates = append(lates, r.late.Seconds())
	}
	e.set("load.late_p99_s", "s", quantile(append(lates, 0), 0.99))
	e.set("load.rt_p99_s", "s", quantile(rts(open, third), 0.99))
	fmt.Fprintf(e.stdout, "rt_p99_s from %d open-phase round trips\n", len(open))

	plain, err := inprocLeg(e, in, nil, serveRate, third)
	if err != nil {
		return err
	}
	traced, err := inprocLeg(e, in, e.spans, serveRate, third)
	if err != nil {
		return err
	}
	e.set("bench.trace_overhead_frac", "ratio", median(rts(traced.open, third))/median(rts(plain.open, third))-1)
	setServeLayers(e, traced)
	si := in.insts[0]
	p := &probe{e: e, inst: si.inst, files: instFiles{scb2: in.preload},
		cfg: coreConfig(si.alpha), workers: max(1, e.nproc/2), solveSeed: 1, served: true}
	return p.run(nil)
}
