package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/parallel"
	"streamcover/internal/stream"
)

// recorder keeps the benchmark's own spans in memory; writeFile dumps them
// as JSON lines when the run ends. Spans wrap calls into each layer's
// public functions from the benchmark's side (spans inside the program are
// not this benchmark's business). A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_s"` // since the recorder was made
	Dur    float64        `json:"dur_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID. Aggregated spans (the
// summed time inside Next or Observe over a pass) carry "aggregated": true
// and start at their parent's start.
func (r *recorder) add(parent int, name string, start time.Time, d time.Duration, attrs map[string]any) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Seconds(), Dur: d.Seconds(), Attrs: attrs})
	return id
}

// reserve allocates the ID of a span whose children are recorded before it
// ends; fill completes it.
func (r *recorder) reserve(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{ID: len(r.spans) + 1, Parent: parent, Name: name})
	return len(r.spans)
}

func (r *recorder) fill(id int, start time.Time, d time.Duration, attrs map[string]any) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Start, s.Dur, s.Attrs = start.Sub(r.t0).Seconds(), d.Seconds(), attrs
}

// time runs f under a span named name and returns f's wall time.
func (r *recorder) time(parent int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.add(parent, name, start, d, nil)
	return d
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingStream wraps the stream a driver reads and times every Next.
type timingStream struct {
	stream.Stream
	next  time.Duration
	items int
}

func (t *timingStream) Next() (stream.Item, bool) {
	start := time.Now()
	it, ok := t.Stream.Next()
	t.next += time.Since(start)
	if ok {
		t.items++
	}
	return it, ok
}

// Err forwards the wrapped stream's mid-pass failure to the driver.
func (t *timingStream) Err() error { return stream.PassErr(t.Stream) }

// StableItems forwards the wrapped stream's stability, so the parallel
// driver broadcasts items exactly as it would without the wrapper.
func (t *timingStream) StableItems() bool {
	s, ok := t.Stream.(interface{ StableItems() bool })
	return ok && s.StableItems()
}

// Solve phases follow from the pass index: 0 prunes, odd passes store
// sampled projections, even passes subtract the sub-cover.
const (
	phasePrune = iota
	phaseStore
	phaseSubtract
)

var phaseNames = [3]string{"prune", "store", "subtract"}

func phaseOf(pass int) int {
	switch {
	case pass == 0:
		return phasePrune
	case pass%2 == 1:
		return phaseStore
	default:
		return phaseSubtract
	}
}

// timedAlg wraps one PassAlgorithm the driver runs and times BeginPass,
// Observe and EndPass by phase. Each wrapper is driven by one goroutine.
type timedAlg struct {
	inner   stream.PassAlgorithm
	pass    int
	begin   time.Duration
	observe [3]time.Duration
	endpass [3]time.Duration
	// Space around the first store pass: the projection words it stored.
	storeBegin, storeEnd int
}

func (a *timedAlg) BeginPass(pass int) {
	start := time.Now()
	a.inner.BeginPass(pass)
	a.begin += time.Since(start)
	a.pass = pass
	if pass == 1 {
		a.storeBegin = a.inner.Space()
	}
}

func (a *timedAlg) Observe(it stream.Item) {
	start := time.Now()
	a.inner.Observe(it)
	a.observe[phaseOf(a.pass)] += time.Since(start)
}

func (a *timedAlg) EndPass() bool {
	if a.pass == 1 {
		a.storeEnd = a.inner.Space()
	}
	start := time.Now()
	done := a.inner.EndPass()
	a.endpass[phaseOf(a.pass)] += time.Since(start)
	return done
}

func (a *timedAlg) Space() int { return a.inner.Space() }

func (a *timedAlg) busy() time.Duration {
	d := a.begin
	for p := range a.observe {
		d += a.observe[p] + a.endpass[p]
	}
	return d
}

// solveTrace is one traced solve, summed over the driver's children.
type solveTrace struct {
	wall       time.Duration
	next       time.Duration
	observe    [3]time.Duration
	endpass    [3]time.Duration
	busy       []time.Duration // per worker
	lanes      int
	feasible   int
	storeWords int
	items      int
	acc        stream.Accounting
	res        core.Result
}

// tracedSolve runs Algorithm 1 with its guess grid over st exactly as
// core.SolveStream does for a root seed — the same solver, guess groups,
// RNG discipline and driver — with the wrappers above between the driver
// and the stream and between the driver and each guess group. Workers 1
// drives the single group with the sequential driver; more drive one group
// per worker with the parallel driver.
func tracedSolve(rec *recorder, parent int, st stream.Stream, cfg core.Config, seed uint64) (solveTrace, error) {
	start := time.Now()
	id := rec.reserve(parent, "core.solve")
	solver := core.NewSolver(st.Universe(), st.Len(), cfg, core.SolveFileRNG(seed))
	groups := solver.Groups()
	ts := &timingStream{Stream: st}
	algs := make([]*timedAlg, len(groups))
	children := make([]stream.PassAlgorithm, len(groups))
	for i, g := range groups {
		algs[i] = &timedAlg{inner: g}
		children[i] = algs[i]
	}
	maxPasses := cfg.MaxPasses() + 1
	var (
		acc stream.Accounting
		err error
	)
	if len(children) == 1 {
		acc, err = stream.RunContext(context.Background(), ts, children[0], maxPasses)
	} else {
		acc, err = parallel.Run(ts, children, parallel.Config{Workers: len(children), MaxPasses: maxPasses})
	}
	t := solveTrace{wall: time.Since(start), next: ts.next, items: ts.items, acc: acc}
	if err != nil {
		return t, err
	}
	best, ok := solver.Best()
	if !ok {
		return t, streamcover.ErrInfeasible
	}
	t.res = best
	for i, a := range algs {
		for p := range a.observe {
			t.observe[p] += a.observe[p]
			t.endpass[p] += a.endpass[p]
		}
		t.busy = append(t.busy, a.busy())
		t.storeWords += a.storeEnd - a.storeBegin
		t.lanes += groups[i].Lanes()
		for l := 0; l < groups[i].Lanes(); l++ {
			if groups[i].Lane(l).Result().Feasible {
				t.feasible++
			}
		}
	}
	if rec != nil {
		rec.fill(id, start, t.wall, map[string]any{"workers": len(children), "passes": acc.Passes,
			"peak_space_words": acc.PeakSpace, "lanes": t.lanes, "feasible": t.feasible})
		rec.add(id, "stream.next", start, t.next, map[string]any{"aggregated": true, "items": t.items})
		for p := range t.observe {
			rec.add(id, "core.observe."+phaseNames[p], start, t.observe[p], map[string]any{"aggregated": true})
			rec.add(id, "core.endpass."+phaseNames[p], start, t.endpass[p], map[string]any{"aggregated": true})
		}
		for w, b := range t.busy {
			rec.add(id, "parallel.worker", start, b, map[string]any{"aggregated": true, "worker": w})
		}
	}
	return t, nil
}

// idOrder streams set IDs 0..m-1 with no payload: the arrival order of a
// file pass, which stream.Replay fills from a plan without touching the
// file again.
type idOrder struct{ n, m, pos int }

func (s *idOrder) Universe() int { return s.n }
func (s *idOrder) Len() int      { return s.m }
func (s *idOrder) Reset()        { s.pos = 0 }

func (s *idOrder) Next() (stream.Item, bool) {
	if s.pos >= s.m {
		return stream.Item{}, false
	}
	s.pos++
	return stream.Item{ID: s.pos - 1}, true
}
