package stream

import (
	"sync"
	"time"
)

// PassSample is one pass of a traced run: the paper's cost model (passes ×
// space) made observable. The driver emits one sample per clean pass —
// trace volume is O(passes), never O(items) — with timing taken only at
// pass boundaries so tracing cannot perturb the per-item hot path.
type PassSample struct {
	Pass       int           // 0-based pass index
	Duration   time.Duration // wall time of the pass (Reset through EndPass)
	Items      int           // items observed during this pass
	SpaceWords int           // summed footprint at end of pass, in words
	PeakSpace  int           // peak footprint of the run so far, in words
	Live       int           // live guess lanes after the pass; -1 if unknown
	Replayed   bool          // pass served from a recorded replay plan
}

// TraceSink receives pass samples from a traced run. Implementations are
// called on the goroutine running Drive, once per pass, between EndPass and
// the next BeginPass; they must not retain the sample's address (it is
// reused).
type TraceSink interface {
	TracePass(PassSample)
}

// Trace is the basic TraceSink: it collects every sample in order. It is
// safe for concurrent use so a watcher may read Samples while a solve is
// still appending.
type Trace struct {
	mu      sync.Mutex
	samples []PassSample
}

// TracePass implements TraceSink.
func (t *Trace) TracePass(s PassSample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// Samples returns a copy of the samples collected so far.
func (t *Trace) Samples() []PassSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]PassSample(nil), t.samples...)
}

// Len returns the number of samples collected so far.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples)
}

// Reset discards collected samples but keeps capacity, so a reused Trace
// records steady-state runs without allocating.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.samples = t.samples[:0]
	t.mu.Unlock()
}

// LaneCounter is implemented by algorithms that can report how many guess
// lanes are still live (core.GridRun). The driver queries it at pass
// boundaries to fill PassSample.Live.
type LaneCounter interface {
	LiveLanes() int
}

// PassReplayer is implemented by streams that can serve a pass from a
// recorded plan instead of the underlying source (the pass-replay plane).
// The driver queries it after Reset so the sample records whether the pass
// just begun is honest or replayed.
type PassReplayer interface {
	ReplayedPass() bool
}

// replayedPass reports whether the stream is serving the current pass from
// a replay plan.
func replayedPass(s Stream) bool {
	if pr, ok := s.(PassReplayer); ok {
		return pr.ReplayedPass()
	}
	return false
}

// liveLanes sums the live lane counts of the children that expose one, or
// returns -1 when none do.
func liveLanes(children []PassAlgorithm) int {
	sum, known := 0, false
	for _, c := range children {
		if lc, ok := c.(LaneCounter); ok {
			sum += lc.LiveLanes()
			known = true
		}
	}
	if !known {
		return -1
	}
	return sum
}
