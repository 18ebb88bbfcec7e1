package main

import (
	"strings"
	"testing"

	"streamcover/client"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name                              string
		algo, gen, order, in, convert, to string
		alpha                             int
		eps                               float64
		wantErr                           string // substring; "" means valid
	}{
		{name: "defaults", gen: "planted"},
		{name: "all algos", algo: "exact", gen: "zipf", order: "random"},
		{name: "progressive", algo: "progressive", gen: "uniform", order: "adversarial"},
		{name: "storeall", algo: "storeall", gen: "clustered", order: "random"},
		{name: "greedy with file", algo: "greedy", gen: "ignored-when-in-set", order: "adversarial", in: "x.sc"},
		{name: "catalog names", algo: "setcover", gen: "planted", order: "random-each-pass"},
		{name: "alg1 alias", algo: "alg1", gen: "planted", order: "random-once"},
		{name: "empty algo", algo: "", gen: "planted", order: "adversarial"},

		{name: "bad algo", algo: "alg2", gen: "planted", order: "adversarial",
			wantErr: `unknown algo "alg2"`},
		{name: "bad algo lists choices", algo: "quantum", gen: "planted", order: "adversarial",
			wantErr: "setcover, maxcover, greedy, exact, progressive, storeall, or alg1 as an alias for setcover"},
		{name: "maxcover needs k", algo: "maxcover", gen: "planted",
			wantErr: "maxcover needs k >= 1, got 0"},
		{name: "bad gen", algo: "alg1", gen: "gaussian", order: "adversarial",
			wantErr: `unknown -gen "gaussian"`},
		{name: "bad gen lists choices", algo: "alg1", gen: "gaussian", order: "adversarial",
			wantErr: "planted, uniform, zipf, clustered"},
		{name: "bad gen ignored with -in", algo: "alg1", gen: "gaussian", order: "adversarial", in: "x.sc"},
		{name: "bad order", algo: "alg1", gen: "planted", order: "adverserial",
			wantErr: `unknown order "adverserial"`},
		{name: "bad order lists choices", algo: "alg1", gen: "planted", order: "shuffled",
			wantErr: "adversarial, random-once, random-each-pass, or random as an alias for random-once"},
		{name: "negative alpha", gen: "planted", alpha: -1,
			wantErr: "alpha -1 out of range"},
		{name: "eps above one", gen: "planted", eps: 2,
			wantErr: "epsilon 2 out of range"},
		{name: "negative eps", gen: "planted", eps: -0.5,
			wantErr: "epsilon -0.5 out of range"},

		{name: "convert scb2", algo: "alg1", gen: "planted", order: "adversarial",
			convert: "out.scb2", to: "scb2"},
		{name: "convert text", algo: "alg1", gen: "planted", order: "adversarial",
			convert: "out.sc", to: "text"},
		{name: "bad convert codec", algo: "alg1", gen: "planted", order: "adversarial",
			convert: "out.bin", to: "msgpack", wantErr: `unknown -to "msgpack"`},
		{name: "bad codec lists choices", algo: "alg1", gen: "planted", order: "adversarial",
			convert: "out.bin", to: "msgpack", wantErr: "scb2, scb1, text"},
		{name: "to ignored without convert", algo: "alg1", gen: "planted", order: "adversarial",
			to: "msgpack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := validateFlags(client.SolveRequest{
				Algo: tc.algo, Order: tc.order, Alpha: tc.alpha, Epsilon: tc.eps,
			}, tc.gen, tc.in, tc.convert, tc.to)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
