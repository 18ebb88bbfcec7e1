package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E999", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "bb"},
		Notes:   []string{"note"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 0.125)
	md := tb.Markdown()
	for _, want := range []string{"### EX", "demo", "Paper claim: c", "| a", "bb", "2.5", "> note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2.5\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1:      "1",
		0.5:    "0.5",
		0.1234: "0.1234",
		2.5000: "2.5",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// runQuick runs an experiment in quick mode, does generic validation, and
// compares the rendered table with its golden, testdata/quick/<id>.md —
// the output of `go run ./cmd/tradeoff -exp <id> -quick -seed 1234`
// without the trailing newline. The tables are the same at every worker
// count and under every grid-kernel body, so any difference is a changed
// result. A missing golden fails too: there is no update flag, and a
// golden is re-recorded only by a change meant to alter its table.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tb, err := Run(id, Config{Seed: 1234, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tb.ID != id || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
		t.Fatalf("%s: malformed table %+v", id, tb)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("%s: row width %d != %d columns", id, len(row), len(tb.Columns))
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quick", id+".md"))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if got := tb.Markdown(); got != string(golden) {
		t.Errorf("%s: quick table differs from testdata/quick/%s.md\n got:\n%s\nwant:\n%s", id, id, got, golden)
	}
	return tb
}

func cell(t *testing.T, tb *Table, row int, col string) string {
	t.Helper()
	for i, c := range tb.Columns {
		if c == col {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tb.Columns)
	return ""
}

func cellF(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tb, row, col), 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not a float", col, row, cell(t, tb, row, col))
	}
	return v
}

func TestE1Quick(t *testing.T) {
	tb := runQuick(t, "E1")
	if len(tb.Rows) < 4 {
		t.Fatalf("E1 rows = %d", len(tb.Rows))
	}
	// Projection words must decrease from α=1 to α=3.
	p1 := cellF(t, tb, 0, "proj_words")
	p3 := cellF(t, tb, 2, "proj_words")
	if p3 >= p1 {
		t.Fatalf("projection words not shrinking with α: %v vs %v", p1, p3)
	}
	// Cover stays within (α+ε)(1+ε)·opt.
	for i := range tb.Rows {
		alpha := cellF(t, tb, i, "alpha")
		cover := cellF(t, tb, i, "cover")
		opt := cellF(t, tb, i, "opt")
		if cover > (alpha+0.5)*1.5*opt+1 {
			t.Fatalf("α=%v cover %v breaks the guarantee (opt %v)", alpha, cover, opt)
		}
	}
}

func TestE2Quick(t *testing.T) {
	tb := runQuick(t, "E2")
	// For each pass count, success at the largest per-pass budget must be
	// high and must not fall below success at the smallest budget.
	lo, hi := map[string]int{}, map[string]int{} // pass count → row of its smallest/largest budget
	budget := func(i int) float64 { return cellF(t, tb, i, "budget/(m·t)") }
	for i := range tb.Rows {
		p := cell(t, tb, i, "passes")
		if j, ok := lo[p]; !ok || budget(i) < budget(j) {
			lo[p] = i
		}
		if j, ok := hi[p]; !ok || budget(i) > budget(j) {
			hi[p] = i
		}
	}
	for p := range lo {
		small, large := cellF(t, tb, lo[p], "success"), cellF(t, tb, hi[p], "success")
		if large < 0.7 || large < small {
			t.Errorf("E2 passes=%s: success %v at the largest budget, %v at the smallest; want ≥ 0.7 and no drop",
				p, large, small)
		}
	}
}

func TestE3Quick(t *testing.T) {
	tb := runQuick(t, "E3")
	for i := range tb.Rows {
		if v := cellF(t, tb, i, "P[opt≤2 | θ=1]"); v < 0.99 {
			t.Fatalf("E3 row %d: θ=1 opt=2 rate %v", i, v)
		}
		if v := cellF(t, tb, i, "P[opt>2α | θ=0]"); v < 0.8 {
			t.Fatalf("E3 row %d: gap rate %v", i, v)
		}
	}
}

func TestE4Quick(t *testing.T) {
	tb := runQuick(t, "E4")
	// At the largest budget both orders succeed.
	last := len(tb.Rows) - 1
	if cellF(t, tb, last, "success(adversarial)") < 0.7 ||
		cellF(t, tb, last, "success(random)") < 0.7 {
		t.Fatalf("E4: full-budget success too low: %v", tb.Rows[last])
	}
}

func TestE5Quick(t *testing.T) {
	tb := runQuick(t, "E5")
	// Per ε block, success at multiplier 4 ≥ success at 1/16 − slack.
	for i := 0; i+3 < len(tb.Rows); i += 4 {
		lo := cellF(t, tb, i, "success")
		hi := cellF(t, tb, i+3, "success")
		if hi < lo-0.1 {
			t.Fatalf("E5 block at row %d: success fell with budget (%v → %v)", i, lo, hi)
		}
	}
}

func TestE6Quick(t *testing.T) {
	tb := runQuick(t, "E6")
	for i := range tb.Rows {
		r1 := cellF(t, tb, i, "mean opt/τ (θ=1)")
		r0 := cellF(t, tb, i, "mean opt/τ (θ=0)")
		if r1 <= r0 {
			t.Fatalf("E6 row %d: no separation (%v vs %v)", i, r1, r0)
		}
		if r1 < 1 || r0 > 1 {
			t.Fatalf("E6 row %d: τ does not separate (%v, %v)", i, r1, r0)
		}
	}
}

func TestE7Quick(t *testing.T) {
	tb := runQuick(t, "E7")
	byName := map[string]int{}
	for i := range tb.Rows {
		byName[cell(t, tb, i, "algorithm")] = i
	}
	a3, okA := byName["Algorithm1(α=3)"]
	sa, okS := byName["StoreAllGreedy"]
	if !okA || !okS {
		t.Fatalf("E7 missing rows: %v", byName)
	}
	if cellF(t, tb, a3, "peak_words") >= cellF(t, tb, sa, "peak_words") {
		t.Fatal("E7: Algorithm1(α=3) should use less space than store-all")
	}
}

func TestE8Quick(t *testing.T) {
	tb := runQuick(t, "E8")
	for i := range tb.Rows {
		below := cellF(t, tb, i, "P[below]")
		bound := cellF(t, tb, i, "bound")
		if below > bound+0.05 {
			t.Fatalf("E8 row %d: empirical violation %v exceeds bound %v", i, below, bound)
		}
	}
}

func TestE9Quick(t *testing.T) {
	tb := runQuick(t, "E9")
	// full-reveal must carry more information than silent at every t.
	var fullY, silentY float64 = -1, -1
	for i := range tb.Rows {
		switch cell(t, tb, i, "protocol") {
		case "full-reveal":
			fullY = cellF(t, tb, i, "ICost(D^Y)")
		case "silent":
			silentY = cellF(t, tb, i, "ICost(D^Y)")
			if silentY > fullY {
				t.Fatalf("E9: silent (%v) ≥ full-reveal (%v)", silentY, fullY)
			}
			if e := cellF(t, tb, i, "error"); e < 0.3 || e > 0.7 {
				t.Fatalf("E9: silent error %v not ≈ 1/2", e)
			}
		}
	}
	if fullY < 0 || silentY < 0 {
		t.Fatal("E9 missing protocols")
	}
}

func TestE10Quick(t *testing.T) {
	tb := runQuick(t, "E10")
	first := cellF(t, tb, 0, "success")
	last := cellF(t, tb, len(tb.Rows)-1, "success")
	if last < first {
		t.Fatalf("E10: success fell with sampling rate (%v → %v)", first, last)
	}
	if last < 0.9 {
		t.Fatalf("E10: success at the paper rate too low: %v", last)
	}
}

func TestE11Quick(t *testing.T) {
	tb := runQuick(t, "E11")
	byName := map[string]int{}
	for i := range tb.Rows {
		byName[cell(t, tb, i, "variant")] = i
	}
	full, ok1 := byName["full (paper)"]
	coarse, ok2 := byName["coarse β=2/α"]
	if !ok1 || !ok2 {
		t.Fatalf("E11 missing variants: %v", byName)
	}
	if cellF(t, tb, full, "proj_words") >= cellF(t, tb, coarse, "proj_words") {
		t.Fatal("E11: sharp exponent should store fewer projection words than coarse")
	}
}

func TestE12Quick(t *testing.T) {
	tb := runQuick(t, "E12")
	for i := range tb.Rows {
		if rate := cellF(t, tb, i, "rate"); rate < 0.85 {
			t.Fatalf("E12 row %d: reduction success %v", i, rate)
		}
	}
}

func TestE13Quick(t *testing.T) {
	tb := runQuick(t, "E13")
	// Iteration-1 rows at the healthy rate must decay at least ~n^{1/α}/4
	// (later iterations act on near-empty U, where ratios are noise); at
	// least one starved row must show a visible (non-covered) residue.
	sawResidue := false
	for i := range tb.Rows {
		c := cellF(t, tb, i, "sampleC")
		shrinkCell := cell(t, tb, i, "shrink")
		if shrinkCell == "covered" {
			continue
		}
		sawResidue = true
		if c >= 2 && cell(t, tb, i, "iter") == "1" {
			pred := cellF(t, tb, i, "n^(1/a)")
			if cellF(t, tb, i, "shrink") < pred/4 {
				t.Fatalf("E13 row %d: healthy-rate iter-1 shrink %v far below %v", i, shrinkCell, pred)
			}
		}
	}
	if !sawResidue {
		t.Fatal("E13: starved rates never left a residue — sweep not informative")
	}
}

func TestE14Quick(t *testing.T) {
	tb := runQuick(t, "E14")
	for i := range tb.Rows {
		over := cellF(t, tb, i, "overhead")
		guesses := cellF(t, tb, i, "guesses")
		if over < 1 {
			t.Fatalf("E14 row %d: overhead %v < 1", i, over)
		}
		if over > guesses+1 {
			t.Fatalf("E14 row %d: overhead %v exceeds guess count %v", i, over, guesses)
		}
	}
	// Smaller ε ⇒ more guesses ⇒ weakly more overhead (same α block).
	if len(tb.Rows) >= 2 {
		if cellF(t, tb, 1, "guesses") <= cellF(t, tb, 0, "guesses") {
			t.Fatal("E14: smaller ε should add guesses")
		}
	}
}
