// Package experiments contains the reproduction harness: one driver per
// experiment in DESIGN.md's per-experiment index (E1–E14), each producing a
// Table that cmd/tradeoff renders and EXPERIMENTS.md records.
//
// The paper is a theory paper with no empirical tables; every experiment
// regenerates the measurable shape of a theorem or load-bearing lemma —
// who wins, by what factor, where transitions fall — as laid out in
// DESIGN.md §5.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	Seed uint64
	// Quick shrinks sizes and trial counts for tests and benchmarks.
	Quick bool
	// Workers is the guess-grid parallelism for experiments that run the
	// full õpt grid (0 = GOMAXPROCS, 1 = sequential). Tables are identical
	// at every value; only wall-clock time changes.
	Workers int
}

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's prediction this table checks
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "Paper claim: %s\n\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	sb.WriteString("| ")
	for i, c := range t.Columns {
		sb.WriteString(pad(c, widths[i]))
		sb.WriteString(" | ")
	}
	sb.WriteString("\n|")
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w+2))
		sb.WriteString("|")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		sb.WriteString("| ")
		for i := range t.Columns {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			sb.WriteString(pad(cell, widths[i]))
			sb.WriteString(" | ")
		}
		sb.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Runner is an experiment entry point.
type Runner func(cfg Config) (*Table, error)

// Registry maps experiment IDs to runners.
var Registry = map[string]Runner{}

func register(id string, r Runner) {
	Registry[id] = r
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 < E12 (numeric suffix order).
		var a, b int
		fmt.Sscanf(out[i], "E%d", &a)
		fmt.Sscanf(out[j], "E%d", &b)
		return a < b
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return r(cfg)
}
