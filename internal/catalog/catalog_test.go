package catalog

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
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
