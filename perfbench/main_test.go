package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinaries builds covercli and coverd from the enclosing checkout.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/covercli", "./cmd/coverd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building binaries: %v\n%s", err, out)
	}
	return bin
}

// benchmarkFile is the part of BENCHMARK.json the output must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile pins the metric names and units the
// program reports to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, reported []metricSpec) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, want)
	}
}

// TestSmoke runs every workload briefly on small inputs in both modes and
// checks the result line: exact keys, every declared metric with a finite
// value and its unit, every output check passed, nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	bin := buildBinaries(t)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", traced,
					"--smoke", "-bin", bin, "-root", "..", "-out", t.TempDir()}
				if code := realMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(raw) != 4 {
					t.Errorf("result keys %v, want correct, attempted, failed, metrics", raw)
				}
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: %+v, want unit %s", m.name, got, m.unit)
					}
				}
				for _, m := range endToEnd {
					if traced == "0" && rep.Metrics[m.name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, rep.Metrics[m.name].Value)
					}
				}
			})
		}
	}
}

// TestMissingBinariesFail pins the refusal path: without the binaries the
// benchmark exits non-zero and prints no result.
func TestMissingBinariesFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "grid-solve-w1", "--seconds", "1", "-bin", t.TempDir(), "-out", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 without binaries; stdout %q", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q without binaries", stdout.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
