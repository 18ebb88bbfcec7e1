// Command benchcmp compares two benchmark recordings produced by
// `make bench-json` (go test -json event streams) and prints the per-
// benchmark ns/op delta — the dependency-free stand-in for benchstat that
// the CI bench-compare step and local workflows use to track the
// performance trajectory against a committed baseline:
//
//	go run ./cmd/benchcmp BENCH_csr.json BENCH_masks.json
//
// Output is one row per benchmark present in either file, with the
// old/new ns/op ratio (>1 means the new recording is faster) and the old
// and new allocs/op. ns/op compares only between recordings from one box;
// allocs/op is the same on every box. A recording without -benchmem
// figures shows "-" for allocs/op. A benchmark present in only one
// recording is reported as `removed` (old only) or `new` (new only) rather
// than silently dropped, so a renamed or deleted benchmark is visible in
// the delta. The comparison is informational: the exit status is non-zero
// only for unreadable input, never for regressions, so it can run as a
// non-blocking CI step.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the go test -json event schema benchcmp needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a gotest benchmark result line. The benchmark name and
// its numbers can arrive in separate output events, so matching happens on
// the reassembled text, line by line. The -<P> GOMAXPROCS suffix is folded
// away so recordings from machines with different core counts compare.
// The rest of the line holds the -benchmem figures when there are any.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

// memFigure matches one -benchmem figure in the rest of a result line.
var memFigure = regexp.MustCompile(`([0-9.]+) (B/op|allocs/op)`)

// result is one benchmark's figures. Mem reports that the line carried
// -benchmem figures; Bytes and Allocs are meaningful only then.
type result struct {
	Ns, Bytes, Allocs float64
	Mem               bool
}

// load reassembles the output text of a go test -json stream and extracts
// benchmark name → figures. A later duplicate overwrites an earlier one (go
// test repeats a benchmark only when rerun; the last run is the one that
// counts).
func load(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: not a go test -json stream: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]result{}
	for _, m := range benchLine.FindAllStringSubmatch(text.String(), -1) {
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		res := result{Ns: ns}
		for _, f := range memFigure.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			if f[2] == "B/op" {
				res.Bytes = v
			} else {
				res.Allocs, res.Mem = v, true
			}
		}
		out[m[1]] = res
	}
	return out, nil
}

// row is one line of the comparison: a benchmark present in either
// recording. Status is "" for a benchmark present in both, "removed" for
// old-only and "new" for new-only.
type row struct {
	Name     string
	Old, New result // meaningful per Status
	Status   string
}

// diff joins two recordings into sorted rows, keeping one-sided benchmarks
// as removed/new rows instead of dropping them.
func diff(old, now map[string]result) []row {
	names := map[string]bool{}
	for n := range old {
		names[n] = true
	}
	for n := range now {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	rows := make([]row, 0, len(sorted))
	for _, n := range sorted {
		o, hasOld := old[n]
		v, hasNew := now[n]
		switch {
		case hasOld && hasNew:
			rows = append(rows, row{Name: n, Old: o, New: v})
		case hasOld:
			rows = append(rows, row{Name: n, Old: o, Status: "removed"})
		default:
			rows = append(rows, row{Name: n, New: v, Status: "new"})
		}
	}
	return rows
}

// render writes the comparison table.
func render(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-52s %14s %14s %9s %13s %13s\n",
		"benchmark", "old ns/op", "new ns/op", "old/new", "old allocs/op", "new allocs/op")
	for _, r := range rows {
		switch r.Status {
		case "removed":
			fmt.Fprintf(w, "%-52s %14.0f %14s %9s %13s %13s\n", r.Name, r.Old.Ns, "-", "removed", allocs(r.Old), "-")
		case "new":
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s %13s %13s\n", r.Name, "-", r.New.Ns, "new", "-", allocs(r.New))
		default:
			fmt.Fprintf(w, "%-52s %14.0f %14.0f %8.2fx %13s %13s\n",
				r.Name, r.Old.Ns, r.New.Ns, r.Old.Ns/r.New.Ns, allocs(r.Old), allocs(r.New))
		}
	}
}

// allocs renders a recording's allocs/op cell: "-" when its line carried
// no -benchmem figures.
func allocs(r result) string {
	if !r.Mem {
		return "-"
	}
	return strconv.FormatFloat(r.Allocs, 'f', -1, 64)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintf(os.Stderr, "usage: benchcmp <old.json> <new.json>\n")
		os.Exit(2)
	}
	old, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	now, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	render(os.Stdout, diff(old, now))
}
