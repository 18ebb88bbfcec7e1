package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/bitset"
	"streamcover/internal/stream"
)

func TestNormalizeDefaults(t *testing.T) {
	cases := []struct {
		in, want Request
	}{
		{Request{}, Request{Algo: "setcover", Order: "adversarial", Alpha: 2, Epsilon: 0.5}},
		{Request{Algo: "alg1", Order: "random", Seed: 3},
			Request{Algo: "setcover", Order: "random-once", Alpha: 2, Epsilon: 0.5, Seed: 3}},
		{Request{Algo: "maxcover", K: 4},
			Request{Algo: "maxcover", Order: "adversarial", Alpha: 2, Epsilon: 0.1, K: 4}},
		{Request{Algo: "progressive", Order: "random-each-pass"},
			Request{Algo: "progressive", Order: "random-each-pass", Alpha: 2, Epsilon: 0.5, Lambda: 2}},
		{Request{Algo: "greedy", Alpha: 5, Epsilon: 1},
			Request{Algo: "greedy", Order: "adversarial", Alpha: 5, Epsilon: 1}},
	}
	for _, tc := range cases {
		got, err := Normalize(tc.in)
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzNormalize feeds solve-request JSON, decoded the way coverd decodes
// POST /v1/solve, through Normalize. Whenever Normalize accepts, the
// result must be a fixed point with a stable key, name canonical table
// rows, and hold every parameter in the range its solver uses it in.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"instance":"h"}`,
		`{"instance":"h","algo":"alg1","order":"random","alpha":3,"seed":7}`,
		`{"instance":"h","algo":"maxcover","k":4,"greedy_subsolver":true}`,
		`{"instance":"h","algo":"progressive","lambda":1.01,"order":"random-each-pass","workers":3,"no_cache":true,"wait":true}`,
		`{"instance":"h","algo":"exact","epsilon":1,"opt_hint":3,"sample_constant":0.5}`,
		// Rejected: the solvers would silently rewrite or drop these.
		`{"instance":"h","algo":"progressive","lambda":0.5}`,
		`{"instance":"h","algo":"progressive","lambda":-3}`,
		`{"instance":"h","sample_constant":-1}`,
		`{"instance":"h","opt_hint":-1}`,
		`{"instance":"h","alpha":-1}`,
		`{"instance":"h","epsilon":2}`,
		`{"instance":"h","algo":"maxcover"}`,
		`{"instance":"h","algo":"quantum"}`,
		`{"instance":"h","order":"sorted"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var r Request
		if dec.Decode(&r) != nil {
			return
		}
		n, err := Normalize(r)
		if err != nil {
			return
		}
		again, err := Normalize(n)
		if err != nil || again != n {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v, %v", n, again, err)
		}
		if Key(again) != Key(n) {
			t.Fatalf("Key changed under a second Normalize: %s vs %s", Key(n), Key(again))
		}
		e := Lookup(n.Algo)
		if e == nil || e.Name != n.Algo {
			t.Fatalf("algo %q is not a canonical table name", n.Algo)
		}
		if !slices.Contains(Orders, n.Order) {
			t.Fatalf("order %q is not a canonical order name", n.Order)
		}
		switch {
		case n.Alpha < 1:
			t.Fatalf("alpha %d < 1", n.Alpha)
		case !(n.Epsilon > 0 && n.Epsilon <= 1):
			t.Fatalf("epsilon %g outside (0,1]", n.Epsilon)
		case n.SampleConstant < 0:
			t.Fatalf("sample_constant %g < 0", n.SampleConstant)
		case n.OptimumHint < 0:
			t.Fatalf("opt_hint %d < 0", n.OptimumHint)
		case n.K < e.minK:
			t.Fatalf("%s runs with k %d < %d", e.Name, n.K, e.minK)
		case e.lambda != 0 && !(n.Lambda > 1):
			t.Fatalf("%s runs with lambda %g, want > 1", e.Name, n.Lambda)
		case n.Lambda != 0 && !(n.Lambda > 1):
			t.Fatalf("lambda %g is neither 0 nor > 1", n.Lambda)
		}
	})
}

// TestSetCoverRejectsUncoverableUpload bounds what a tiny upload can buy:
// 24 bytes name a universe of 2·10^6 elements and one set covering one of
// them. The setcover entry must fail with ErrInfeasible before the first
// pass (no pass sample reaches the trace) and allocate far less than the
// universe's passes and sub-solves would.
func TestSetCoverRejectsUncoverableUpload(t *testing.T) {
	inst, err := streamcover.ReadInstance(strings.NewReader("setcover 2000000 1\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := Normalize(Request{Algo: SetCover})
	if err != nil {
		t.Fatal(err)
	}
	var trace streamcover.PassTrace
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(context.Background(), inst, req, Env{Workers: 1, Trace: &trace})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, streamcover.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if n := trace.Len(); n != 0 {
		t.Fatalf("%d pass samples traced, want none before rejection", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("rejecting the upload allocated %d bytes, want < 4 MB", alloc)
	}
}

// TestEntryTrace pins the one conversion of recorded passes to the wire
// trace: nil before the first pass, every sample field carried over in
// pass order, and the grid kernel stamped only for entries that sweep the
// guess grid.
func TestEntryTrace(t *testing.T) {
	var rec stream.Trace
	if st := Lookup(SetCover).Trace(&rec); st != nil {
		t.Fatalf("trace before the first pass = %+v, want nil", st)
	}
	rec.TracePass(stream.PassSample{Pass: 0, Duration: 1500 * time.Millisecond, Items: 7,
		SpaceWords: 40, PeakSpace: 40, Live: 3})
	rec.TracePass(stream.PassSample{Pass: 1, Items: 7, SpaceWords: 25, PeakSpace: 40, Live: 0, Replayed: true})
	want := []client.PassTrace{
		{Pass: 0, DurationSeconds: 1.5, Items: 7, SpaceWords: 40, PeakSpaceWords: 40, Live: 3},
		{Pass: 1, Items: 7, SpaceWords: 25, PeakSpaceWords: 40, Live: 0, Replayed: true},
	}
	for _, algo := range Algos {
		e := Lookup(algo)
		st := e.Trace(&rec)
		if !slices.Equal(st.Passes, want) {
			t.Fatalf("%s: passes = %+v, want %+v", algo, st.Passes, want)
		}
		wantKernel := ""
		if e.Grid {
			wantKernel = bitset.GridKernel()
		}
		if st.Kernel != wantKernel {
			t.Fatalf("%s: kernel = %q, want %q", algo, st.Kernel, wantKernel)
		}
	}
}
