package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamcover"
	"streamcover/internal/bitset"
	"streamcover/internal/core"
	"streamcover/internal/registry"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// perLayer is the traced run's metric list (BENCHMARK.json's per_layer).
// Every traced run reports all of them, measured on its workload's own
// instance; README.md maps each to the end-to-end metric it should move.
// Each probe timing <name>_s comes with its exact allocations and bytes
// per call, <name>_allocs and <name>_bytes: those are the same on every
// box, so they can gate regressions.
var perLayer = []metricSpec{
	{"setsystem.decode_text_s", "s"},
	{"setsystem.decode_text_allocs", "count"},
	{"setsystem.decode_text_bytes", "B"},
	{"setsystem.encode_scb1_s", "s"},
	{"setsystem.encode_scb1_allocs", "count"},
	{"setsystem.encode_scb1_bytes", "B"},
	{"setsystem.decode_scb1_s", "s"},
	{"setsystem.decode_scb1_allocs", "count"},
	{"setsystem.decode_scb1_bytes", "B"},
	{"setsystem.hash_s", "s"},
	{"setsystem.hash_allocs", "count"},
	{"setsystem.hash_bytes", "B"},
	{"setsystem.map_scb2_s", "s"},
	{"setsystem.map_scb2_allocs", "count"},
	{"setsystem.map_scb2_bytes", "B"},
	{"stream.pass_scb1_s", "s"},
	{"stream.pass_scb1_allocs", "count"},
	{"stream.pass_scb1_bytes", "B"},
	{"stream.pass_replay_s", "s"},
	{"stream.pass_replay_allocs", "count"},
	{"stream.pass_replay_bytes", "B"},
	{"stream.pass_scb2_s", "s"},
	{"stream.pass_scb2_allocs", "count"},
	{"stream.pass_scb2_bytes", "B"},
	{"stream.pass_text_s", "s"},
	{"stream.pass_text_allocs", "count"},
	{"stream.pass_text_bytes", "B"},
	{"stream.build_plan_s", "s"},
	{"stream.build_plan_allocs", "count"},
	{"stream.build_plan_alloc_mb", "MB"},
	{"stream.plan_mb", "MB"},
	{"stream.next_s", "s"},
	{"bitset.append_runs_s", "s"},
	{"bitset.append_runs_allocs", "count"},
	{"bitset.append_runs_bytes", "B"},
	{"bitset.runs_per_item", "count"},
	{"core.observe_prune_s", "s"},
	{"core.observe_store_s", "s"},
	{"core.observe_subtract_s", "s"},
	{"core.endpass_store_s", "s"},
	{"core.endpass_other_s", "s"},
	{"core.lanes", "count"},
	{"core.feasible_lane_ratio", "ratio"},
	{"core.passes", "count"},
	{"core.peak_space_words", "words"},
	{"core.store_words", "words"},
	{"parallel.worker_busy_frac", "ratio"},
	{"parallel.driver_overhead_s", "s"},
	{"streamcover.allocs_per_solve_w1", "count"},
	{"streamcover.allocs_per_solve_wn", "count"},
	{"streamcover.alloc_mb_per_solve", "MB"},
	{"registry.put_new_s", "s"},
	{"registry.put_new_allocs", "count"},
	{"registry.put_new_bytes", "B"},
	{"registry.put_dedup_s", "s"},
	{"registry.put_dedup_allocs", "count"},
	{"registry.put_dedup_bytes", "B"},
	{"registry.acquire_s", "s"},
	{"registry.acquire_allocs", "count"},
	{"registry.acquire_bytes", "B"},
	{"registry.dedup_ratio", "ratio"},
	{"registry.evictions", "count"},
	{"service.queue_wait_p50_s", "s"},
	{"service.queue_wait_p99_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.submit_to_result_s", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.plan_reuse_ratio", "ratio"},
	{"service.failed", "count"},
	{"service.rejected", "count"},
	{"service.canceled", "count"},
	{"service.cancel_degraded", "count"},
	{"http.upload_s", "s"},
	{"http.solve_overhead_s", "s"},
	{"http.conn_wait_p99_s", "s"},
	{"http.server_upload_mean_s", "s"},
	{"http.server_solve_mean_s", "s"},
	{"load.late_p99_s", "s"},
	{"load.rt_p99_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// instFiles are the instance's on-disk encodings; empty paths are written
// by the probe.
type instFiles struct{ text, scb1, scb2 string }

// probe measures each layer's public functions directly on one workload's
// instance and solve settings.
type probe struct {
	e         *env
	inst      *streamcover.Instance
	files     instFiles
	cfg       core.Config // α and ε of the workload's solves
	workers   int         // the workload's guess-grid workers
	solveSeed uint64
	served    bool // the serve layers were measured by the workload itself
}

func coreConfig(alpha int) core.Config { return core.Config{Alpha: alpha, Epsilon: 0.5} }

// Each repeated measurement calls at least once and at most probeCalls
// times, until about probeBudget has passed.
const (
	probeBudget = 400 * time.Millisecond
	probeCalls  = 25
)

// timeCalls calls f repeatedly and returns the median call time with the
// exact allocations and bytes per call (the timing slice is allocated up
// front, so the harness adds none).
func timeCalls(f func() error) (time.Duration, float64, float64, error) {
	walls := make([]time.Duration, 0, probeCalls)
	runtime.GC()
	a := readAllocs()
	start := time.Now()
	for len(walls) == 0 || (time.Since(start) < probeBudget && len(walls) < probeCalls) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, 0, err
		}
		walls = append(walls, time.Since(t0))
	}
	allocsPer, bytesPer := a.since(len(walls))
	return time.Duration(median(seconds(walls)) * float64(time.Second)), allocsPer, bytesPer, nil
}

// timed records a probe's median call time as <name>_s, with the exact
// allocations and bytes per call as <name>_allocs and <name>_bytes.
func (p *probe) timed(name string, f func() error) error {
	d, allocsPer, bytesPer, err := timeCalls(f)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.e.set(name+"_s", "s", d.Seconds())
	p.e.set(name+"_allocs", "count", allocsPer)
	p.e.set(name+"_bytes", "B", bytesPer)
	return nil
}

func (p *probe) writeFiles() error {
	enc := []struct {
		path *string
		name string
		f    func(w *os.File) error
	}{
		{&p.files.text, "instance.txt", func(w *os.File) error { return streamcover.WriteInstance(w, p.inst) }},
		{&p.files.scb1, "instance.scb1", func(w *os.File) error { return streamcover.WriteInstanceBinary(w, p.inst) }},
		{&p.files.scb2, "instance.scb2", func(w *os.File) error { return streamcover.WriteInstanceSCB2(w, p.inst) }},
	}
	for _, x := range enc {
		if *x.path != "" {
			continue
		}
		*x.path = filepath.Join(p.e.work, x.name)
		f, err := os.Create(*x.path)
		if err != nil {
			return err
		}
		if err := x.f(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// drain reads one full pass: Reset, Next until the end, PassErr.
func drain(s stream.Stream) error {
	s.Reset()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if err := stream.PassErr(s); err != nil {
		return err
	}
	if n != s.Len() {
		return fmt.Errorf("pass read %d of %d sets", n, s.Len())
	}
	return nil
}

// run measures every layer and records the per-layer metrics. traces are
// the workload's own traced solves at p.workers (traced here when nil).
func (p *probe) run(traces []solveTrace) error {
	e := p.e
	if err := p.writeFiles(); err != nil {
		return err
	}
	steps := []func() error{p.setsystem, p.stream, p.bitset, func() error { return p.core(traces) },
		p.allocs, p.registry}
	if !p.served {
		steps = append(steps, p.serve)
	}
	for _, step := range steps {
		e.attempted++
		if err := step(); err != nil {
			e.fail("layer probe: %v", err)
			return err
		}
	}
	return nil
}

func (p *probe) setsystem() error {
	text, err := os.ReadFile(p.files.text)
	if err != nil {
		return err
	}
	scb1, err := os.ReadFile(p.files.scb1)
	if err != nil {
		return err
	}
	if err := p.timed("setsystem.decode_text", func() error {
		_, err := setsystem.ReadAuto(bytes.NewReader(text))
		return err
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := p.timed("setsystem.encode_scb1", func() error {
		buf.Reset()
		return setsystem.WriteBinary(&buf, p.inst)
	}); err != nil {
		return err
	}
	if err := p.timed("setsystem.decode_scb1", func() error {
		_, err := setsystem.ReadAuto(bytes.NewReader(scb1))
		return err
	}); err != nil {
		return err
	}
	if err := p.timed("setsystem.hash", func() error {
		if setsystem.Hash(p.inst) == "" {
			return fmt.Errorf("empty hash")
		}
		return nil
	}); err != nil {
		return err
	}
	return p.timed("setsystem.map_scb2", func() error {
		in, err := setsystem.Map(p.files.scb2)
		if err != nil {
			return err
		}
		return in.Unmap()
	})
}

func (p *probe) stream() error {
	bin, err := stream.OpenBinaryFile(p.files.scb1)
	if err != nil {
		return err
	}
	defer bin.Close()
	if err := p.timed("stream.pass_scb1", func() error { return drain(bin) }); err != nil {
		return err
	}
	text, err := stream.OpenFile(p.files.text)
	if err != nil {
		return err
	}
	defer text.Close()
	if err := p.timed("stream.pass_text", func() error { return drain(text) }); err != nil {
		return err
	}
	mapped, err := stream.OpenMapped(p.files.scb2)
	if err != nil {
		return err
	}
	defer mapped.Close()
	if err := p.timed("stream.pass_scb2", func() error { return drain(mapped) }); err != nil {
		return err
	}
	var plan *stream.Plan
	if err := p.timed("stream.build_plan", func() error {
		var err error
		plan, err = stream.BuildPlan(bin, 0)
		return err
	}); err != nil {
		return err
	}
	p.e.set("stream.build_plan_alloc_mb", "MB", p.e.metrics["stream.build_plan_bytes"].Value/(1<<20))
	p.e.set("stream.plan_mb", "MB", float64(plan.Bytes())/(1<<20))
	replay := stream.Replay(&idOrder{n: bin.Universe(), m: bin.Len()}, plan)
	return p.timed("stream.pass_replay", func() error { return drain(replay) })
}

func (p *probe) bitset() error {
	var scratch []bitset.Run
	runs := 0
	if err := p.timed("bitset.append_runs", func() error {
		runs = 0
		for i := 0; i < p.inst.M(); i++ {
			scratch = bitset.AppendRuns(scratch[:0], p.inst.Set(i))
			runs += len(scratch)
		}
		return nil
	}); err != nil {
		return err
	}
	p.e.set("bitset.runs_per_item", "count", float64(runs)/float64(p.inst.M()))
	return nil
}

// tracedSolves runs k traced solves of the probe instance at workers.
func (p *probe) tracedSolves(workers, k int) ([]solveTrace, error) {
	cfg := p.cfg
	cfg.Workers = workers
	var out []solveTrace
	for i := 0; i < k; i++ {
		t, err := tracedSolve(p.e.spans, 0, stream.FromInstance(p.inst, stream.Adversarial, nil), cfg, p.solveSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func (p *probe) core(traces []solveTrace) error {
	var err error
	if len(traces) == 0 {
		if traces, err = p.tracedSolves(p.workers, 5); err != nil {
			return err
		}
	}
	pick := func(f func(t solveTrace) float64) float64 {
		var xs []float64
		for _, t := range traces {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	e := p.e
	e.set("stream.next_s", "s", pick(func(t solveTrace) float64 { return t.next.Seconds() }))
	for ph, name := range phaseNames {
		e.set("core.observe_"+name+"_s", "s", pick(func(t solveTrace) float64 { return t.observe[ph].Seconds() }))
	}
	e.set("core.endpass_store_s", "s", pick(func(t solveTrace) float64 { return t.endpass[phaseStore].Seconds() }))
	e.set("core.endpass_other_s", "s", pick(func(t solveTrace) float64 {
		return (t.endpass[phasePrune] + t.endpass[phaseSubtract]).Seconds()
	}))
	t0 := traces[0]
	e.set("core.lanes", "count", float64(t0.lanes))
	e.set("core.feasible_lane_ratio", "ratio", float64(t0.feasible)/float64(t0.lanes))
	e.set("core.passes", "count", float64(t0.acc.Passes))
	e.set("core.peak_space_words", "words", float64(t0.acc.PeakSpace))
	e.set("core.store_words", "words", pick(func(t solveTrace) float64 { return float64(t.storeWords) }))

	// The parallel driver's numbers come from solves at nproc workers.
	wide := traces
	if p.workers != e.nproc {
		if wide, err = p.tracedSolves(e.nproc, 3); err != nil {
			return err
		}
	}
	var busyFrac, overhead []float64
	for _, t := range wide {
		var sum, slowest time.Duration
		for _, b := range t.busy {
			sum += b
			slowest = max(slowest, b)
		}
		busyFrac = append(busyFrac, sum.Seconds()/float64(len(t.busy))/t.wall.Seconds())
		overhead = append(overhead, (t.wall - slowest).Seconds())
	}
	e.set("parallel.worker_busy_frac", "ratio", median(busyFrac))
	e.set("parallel.driver_overhead_s", "s", median(overhead))
	return nil
}

// allocs counts the allocations of whole SolveSetCover calls: exact, and
// the same on every box.
func (p *probe) allocs() error {
	solve := func(workers int) func() error {
		return func() error {
			_, err := streamcover.SolveSetCover(p.inst, streamcover.WithAlpha(p.cfg.Alpha),
				streamcover.WithEpsilon(p.cfg.Epsilon), streamcover.WithSeed(p.solveSeed),
				streamcover.WithParallelism(workers))
			return err
		}
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"streamcover.allocs_per_solve_w1", 1}, {"streamcover.allocs_per_solve_wn", p.e.nproc}} {
		_, allocsPer, bytesPer, err := timeCalls(solve(w.workers))
		if err != nil {
			return err
		}
		p.e.set(w.name, "count", allocsPer)
		if w.workers == p.workers || (p.workers != 1 && w.workers != 1) {
			p.e.set("streamcover.alloc_mb_per_solve", "MB", bytesPer/(1<<20))
		}
	}
	return nil
}

// registry times Put of a new instance (into a fresh registry), Put of a
// resident one (a dedup hit) and Acquire with its release.
func (p *probe) registry() error {
	if err := p.timed("registry.put_new", func() error {
		if _, added, err := registry.New(registry.Config{}).Put(p.inst); err != nil || !added {
			return fmt.Errorf("put into a fresh registry: added=%v: %v", added, err)
		}
		return nil
	}); err != nil {
		return err
	}
	reg := registry.New(registry.Config{})
	hash, _, err := reg.Put(p.inst)
	if err != nil {
		return err
	}
	if err := p.timed("registry.put_dedup", func() error {
		if _, added, err := reg.Put(p.inst); err != nil || added {
			return fmt.Errorf("dedup put: added=%v: %v", added, err)
		}
		return nil
	}); err != nil {
		return err
	}
	return p.timed("registry.acquire", func() error {
		_, release, err := reg.Acquire(hash)
		if err == nil {
			release()
		}
		return err
	})
}

// serve runs the serve mix with this workload's instance against an
// in-process server, closed loop, for a quarter of the measured time.
func (p *probe) serve() error {
	in, err := newServeInputs(p.e, []*streamcover.Instance{p.inst}, []int{p.cfg.Alpha}, p.files.scb2)
	if err != nil {
		return err
	}
	leg, err := inprocLeg(p.e, in, p.e.spans, 0, p.e.seconds/4)
	if err != nil {
		return err
	}
	setServeLayers(p.e, leg)
	return nil
}
