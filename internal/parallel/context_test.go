package parallel

import (
	"context"
	"errors"
	"testing"

	"streamcover/internal/stream"
)

// TestRunPreCanceledContext: a canceled Config.Context aborts before any
// pass begins.
func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, algs := makeRecorders([]int{2, 2, 2})
	acc, err := Run(newSliceStream(16, 32), algs, Config{Workers: 2, MaxPasses: 8, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acc.Passes != 0 || acc.Items != 0 {
		t.Fatalf("pre-canceled run accounted work: %+v", acc)
	}
	for i, r := range recs {
		if len(r.seen) != 0 {
			t.Fatalf("child %d observed %d items after pre-cancel", i, len(r.seen))
		}
	}
}

// TestRunCancelMidPass: cancellation during a pass aborts with the
// mid-pass-failure shape — the partial pass is accounted and EndPass is
// skipped (children's pass counters stay put).
func TestRunCancelMidPass(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after item 100 of 512: the driver polls ctx once per 64-item
	// chunk, so the pass stops at the next chunk boundary.
	s := &cancelingStream{sliceStream: *newSliceStream(16, 512), cancel: cancel, after: 100}
	_, algs := makeRecorders([]int{4, 4})
	acc, err := Run(s, algs, Config{Workers: 2, MaxPasses: 8, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if acc.Passes != 1 {
		t.Fatalf("acc.Passes = %d, want 1 (canceled during the first pass)", acc.Passes)
	}
	if acc.Items >= 512 {
		t.Fatalf("acc.Items = %d, want a partial pass", acc.Items)
	}
}

// TestRunNilContextUnchanged: without a Context the driver behaves exactly
// as before (the zero Config remains valid).
func TestRunNilContextUnchanged(t *testing.T) {
	recs, algs := makeRecorders([]int{2, 3})
	acc, err := Run(newSliceStream(16, 32), algs, Config{Workers: 2, MaxPasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Passes != 3 {
		t.Fatalf("acc.Passes = %d, want 3", acc.Passes)
	}
	for i, r := range recs {
		if len(r.seen) == 0 {
			t.Fatalf("child %d observed nothing", i)
		}
	}
}

// cancelingStream cancels the context after serving `after` items.
type cancelingStream struct {
	sliceStream
	cancel context.CancelFunc
	after  int
	served int
}

func (s *cancelingStream) Next() (stream.Item, bool) {
	if s.served == s.after {
		s.cancel()
	}
	s.served++
	return s.sliceStream.Next()
}
