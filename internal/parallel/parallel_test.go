package parallel

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"streamcover/internal/bitset"
	"streamcover/internal/stream"
)

// sliceStream streams a fixed item slice; Elems are reused across passes but
// not across items, and it does not declare StableItems, so the pool must
// copy.
type sliceStream struct {
	n     int
	items []stream.Item
	pos   int
}

// newSliceStream returns m items over a universe of 3n elements, each a
// sorted set of three elements spanning up to three words.
func newSliceStream(n, m int) *sliceStream {
	s := &sliceStream{n: n, pos: m}
	for id := 0; id < m; id++ {
		elems := []int32{int32(id % n), int32(n + (id*7)%n), int32(2*n + (id*13+5)%n)}
		s.items = append(s.items, stream.Item{ID: id, Elems: elems})
	}
	return s
}

func (s *sliceStream) Universe() int { return 3 * s.n }
func (s *sliceStream) Len() int      { return len(s.items) }
func (s *sliceStream) Reset()        { s.pos = 0 }
func (s *sliceStream) Next() (stream.Item, bool) {
	if s.pos >= len(s.items) {
		return stream.Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// stableSliceStream additionally promises item stability (the no-copy path).
type stableSliceStream struct{ sliceStream }

func (s *stableSliceStream) StableItems() bool { return true }

// recorder is a PassAlgorithm that records every observation in order and
// finishes after `need` passes. Its footprint is a function of how many
// items it has seen: space(seen) when set, else the monotone seen+need.
type recorder struct {
	need, pass int
	seen       []int // observations in order: pass, item ID and element sum
	space      func(seen int) int
	lanes      int // reported as LiveLanes
	badRuns    int // observed items whose Runs disagree with their Elems
	runs       []bitset.Run
}

func (r *recorder) BeginPass(pass int) { r.pass = pass }
func (r *recorder) Observe(it stream.Item) {
	sum := 0
	for _, e := range it.Elems {
		sum += int(e)
	}
	r.seen = append(r.seen, r.pass<<40|it.ID<<20|sum)
	if it.Runs != nil {
		r.runs = bitset.AppendRuns(r.runs[:0], it.Elems)
		if !slices.Equal(r.runs, it.Runs) {
			r.badRuns++
		}
	}
}
func (r *recorder) EndPass() bool  { return r.pass+1 >= r.need }
func (r *recorder) Space() int     { return r.footprint(len(r.seen)) }
func (r *recorder) LiveLanes() int { return r.lanes }

func (r *recorder) footprint(seen int) int {
	if r.space == nil {
		return seen + r.need
	}
	return r.space(seen)
}

func makeRecorders(needs []int) ([]*recorder, []stream.PassAlgorithm) {
	recs := make([]*recorder, len(needs))
	algs := make([]stream.PassAlgorithm, len(needs))
	for i, n := range needs {
		recs[i] = &recorder{need: n, lanes: i + 1}
		algs[i] = recs[i]
	}
	return recs, algs
}

// cyclic returns the non-monotone footprint (seen+phase) mod 13.
func cyclic(phase int) func(int) int {
	return func(seen int) int { return (seen + phase) % 13 }
}

// handPeak works a lockstep run's peak out from the children's space
// functions alone: during pass p, after k of its m items (k = 0 right after
// BeginPass), child r has seen min(p, need)·m items plus k more while it is
// still running, and EndPass changes no footprint.
func handPeak(recs []*recorder, m, passes int) int {
	peak := 0
	for p := 0; p < passes; p++ {
		for k := 0; k <= m; k++ {
			sum := 0
			for _, r := range recs {
				seen := min(p, r.need) * m
				if p < r.need {
					seen += k
				}
				sum += r.footprint(seen)
			}
			peak = max(peak, sum)
		}
	}
	return peak
}

// conformanceItems is several full broadcast chunks plus a partial one.
const conformanceItems = 200

type conformanceRun struct {
	recs    []*recorder
	acc     stream.Accounting
	err     error
	samples []stream.PassSample
}

// TestDriverConformance pins the one pass driver's contract: at every
// worker count, on copying and stable streams, every run equals the
// workers=1 inline run — accounting, error, trace samples (wall time
// aside) and each child's observation sequence — and its peak equals the
// one worked out by hand from the children's space functions, monotone or
// not. The cases add the composition rules: passes run until the last
// child finishes, a finished child stops observing but keeps its
// footprint, an unfinished run reports ErrPassLimit, an empty run is one
// counted pass, one child through Run equals stream.Run, and Live sums the
// children's lane counts (-1 when none reports one).
func TestDriverConformance(t *testing.T) {
	staggered := []int{1, 3, 2, 5, 4, 2, 1, 3, 3, 5}
	cases := []struct {
		name      string
		needs     []int
		space     []func(int) int // per child; nil entries are monotone
		maxPasses int
		bare      bool // hide LaneCounter: Live must read -1
		check     func(t *testing.T, r conformanceRun)
	}{
		{name: "monotone", needs: staggered, maxPasses: 6,
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 5, 55)
			}},
		{name: "non-monotone", needs: staggered, maxPasses: 6,
			space: []func(int) int{cyclic(0), cyclic(5), cyclic(9), cyclic(2), cyclic(11),
				cyclic(7), cyclic(3), cyclic(12), cyclic(6), cyclic(1)},
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 5, 55)
			}},
		{name: "three-phases", needs: []int{2, 2, 2}, maxPasses: 4,
			space: []func(int) int{cyclic(0), cyclic(5), cyclic(9)},
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 2, 6)
				// (s mod 13) + (s+5 mod 13) + (s+9 mod 13) peaks at s ≡ 12:
				// 12 + 4 + 8. Sampling only at chunk and pass boundaries
				// reads 18.
				if r.acc.PeakSpace != 24 {
					t.Errorf("PeakSpace = %d, want 24", r.acc.PeakSpace)
				}
			}},
		{name: "retained", needs: []int{1, 3}, maxPasses: 10, bare: true,
			space: []func(int) int{func(int) int { return 5 }, func(int) int { return 7 }},
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 3, -1)
				if r.acc.PeakSpace != 12 {
					t.Errorf("PeakSpace = %d, want 12: a finished child keeps its footprint", r.acc.PeakSpace)
				}
				if got := []int{len(r.recs[0].seen), len(r.recs[1].seen)}; got[0] != conformanceItems || got[1] != 3*conformanceItems {
					t.Errorf("children observed %v items, want [%d %d]", got, conformanceItems, 3*conformanceItems)
				}
			}},
		{name: "pass-limit", needs: []int{10, 1}, maxPasses: 3,
			check: func(t *testing.T, r conformanceRun) {
				var pl stream.ErrPassLimit
				if !errors.As(r.err, &pl) || pl.Limit != 3 {
					t.Fatalf("err = %v, want ErrPassLimit{3}", r.err)
				}
				if r.acc.Passes != 3 || r.acc.Items != 3*conformanceItems {
					t.Errorf("accounting %+v, want 3 full passes", r.acc)
				}
				if len(r.recs[1].seen) >= len(r.recs[0].seen) {
					t.Errorf("finished child kept observing: %d vs %d items", len(r.recs[1].seen), len(r.recs[0].seen))
				}
			}},
		{name: "empty", maxPasses: 2,
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 1, -1)
			}},
		{name: "singleton", needs: []int{3}, maxPasses: 4,
			check: func(t *testing.T, r conformanceRun) {
				wantRun(t, r, 3, 1)
				solo := &recorder{need: 3}
				acc, err := stream.Run(newSliceStream(64, conformanceItems), solo, 4)
				if err != nil || acc != r.acc || !slices.Equal(solo.seen, r.recs[0].seen) {
					t.Errorf("stream.Run: %+v, %v; parallel.Run: %+v", acc, err, r.acc)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int, stable bool) conformanceRun {
				recs, algs := makeRecorders(tc.needs)
				for i, r := range recs {
					if tc.space != nil {
						r.space = tc.space[i]
					}
					if tc.bare {
						algs[i] = struct{ stream.PassAlgorithm }{r}
					}
				}
				var s stream.Stream = newSliceStream(64, conformanceItems)
				if stable {
					s = &stableSliceStream{*newSliceStream(64, conformanceItems)}
				}
				var tr stream.Trace
				acc, err := Run(s, algs, Config{Workers: workers, MaxPasses: tc.maxPasses, Trace: &tr})
				samples := tr.Samples()
				for i := range samples {
					samples[i].Duration = 0
				}
				return conformanceRun{recs: recs, acc: acc, err: err, samples: samples}
			}
			want := run(1, false)
			tc.check(t, want)
			passes := min(slices.Max(append([]int{1}, tc.needs...)), tc.maxPasses)
			if hand := handPeak(want.recs, conformanceItems, passes); want.acc.PeakSpace != hand {
				t.Errorf("PeakSpace = %d, worked out by hand %d", want.acc.PeakSpace, hand)
			}
			for _, workers := range []int{1, 2, 3, 8, 32} {
				for _, stable := range []bool{false, true} {
					got := run(workers, stable)
					if got.acc != want.acc || !reflect.DeepEqual(got.err, want.err) ||
						!reflect.DeepEqual(got.samples, want.samples) {
						t.Errorf("workers=%d stable=%v: %+v, %v, samples %+v; inline run %+v, %v, samples %+v",
							workers, stable, got.acc, got.err, got.samples, want.acc, want.err, want.samples)
					}
					for i, r := range got.recs {
						if !slices.Equal(r.seen, want.recs[i].seen) {
							t.Errorf("workers=%d stable=%v: child %d observation sequence diverged", workers, stable, i)
						}
						if r.badRuns != 0 {
							t.Errorf("workers=%d stable=%v: child %d got %d items whose Runs disagree with Elems",
								workers, stable, i, r.badRuns)
						}
					}
				}
			}
		})
	}
}

// wantRun checks a clean run of `passes` full passes with the given Live
// lane count on every sample.
func wantRun(t *testing.T, r conformanceRun, passes, live int) {
	t.Helper()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.acc.Passes != passes || r.acc.Items != passes*conformanceItems {
		t.Errorf("accounting %+v, want %d full passes", r.acc, passes)
	}
	if len(r.samples) != passes {
		t.Fatalf("%d trace samples, want one per pass", len(r.samples))
	}
	for _, sm := range r.samples {
		if sm.Live != live {
			t.Errorf("pass %d: Live = %d, want %d", sm.Pass, sm.Live, live)
		}
	}
}

// goroutineProbe records the goroutine count seen from inside Observe.
type goroutineProbe struct {
	recorder
	most int
}

func (g *goroutineProbe) Observe(it stream.Item) {
	g.most = max(g.most, runtime.NumGoroutine())
	g.recorder.Observe(it)
}

// TestInlineRunStartsNoGoroutine: at one worker, or with one child, the
// driver observes on the caller's goroutine and starts none.
func TestInlineRunStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct{ workers, children int }{{1, 3}, {8, 1}} {
		probes := make([]stream.PassAlgorithm, tc.children)
		for i := range probes {
			probes[i] = &goroutineProbe{recorder: recorder{need: 2}}
		}
		before := runtime.NumGoroutine()
		if _, err := Run(newSliceStream(16, 100), probes, Config{Workers: tc.workers, MaxPasses: 3}); err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			if most := p.(*goroutineProbe).most; most > before {
				t.Errorf("workers=%d children=%d: %d goroutines inside Observe, %d before the run",
					tc.workers, tc.children, most, before)
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Errorf("Workers(<=0) = %d, %d; want >= 1", Workers(0), Workers(-1))
	}
}

// TestArgMaxDeterministic checks that ArgMax equals the sequential
// first-strictly-greater scan — including lowest-index tie-breaks — at every
// worker count, above and below the inline threshold.
func TestArgMaxDeterministic(t *testing.T) {
	cases := [][]int{
		{},
		{5},
		{0, 0, 0, 0},
		{1, 3, 3, 2, 3},
		make([]int, 100),
		nil,
	}
	// A large case with many ties: score collisions every 17 indices.
	big := make([]int, 257)
	for i := range big {
		big[i] = (i * 31 % 17) * 2
	}
	cases = append(cases, big)
	for ci, scores := range cases {
		wantIdx, wantScore := -1, 0
		for i, s := range scores {
			if wantIdx < 0 || s > wantScore {
				wantIdx, wantScore = i, s
			}
		}
		for _, w := range []int{1, 2, 3, 7, 16} {
			idx, score := ArgMax(w, len(scores), func(i int) int { return scores[i] })
			if idx != wantIdx || (wantIdx >= 0 && score != wantScore) {
				t.Errorf("case %d workers %d: ArgMax = (%d, %d), want (%d, %d)",
					ci, w, idx, score, wantIdx, wantScore)
			}
		}
	}
}
