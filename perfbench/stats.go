package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamcover/internal/bitset"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo >= len(s)-1 || frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// seconds converts durations to float seconds for the quantile helpers.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// derive maps the workload seed and a label to an independent sub-seed, so
// every input (instances, solve seeds, schedule) follows from --seed alone.
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := seed*0x9E3779B97F4A7C15 ^ h.Sum64()
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// splitmix is a tiny seeded generator for schedules and mix choices.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// childRSSMB returns the peak resident set of a finished child process.
func childRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// selfRSSMB returns this process's peak resident set.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocs is a before/after reading of the process-wide allocation
// counters; the counts are exact, and the same on every box.
type allocs struct{ mallocs, bytes uint64 }

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocations and bytes made since a, divided by calls.
func (a allocs) since(calls int) (perCall, bytesPerCall float64) {
	b := readAllocs()
	return float64(b.mallocs-a.mallocs) / float64(calls), float64(b.bytes-a.bytes) / float64(calls)
}

// stamp identifies where and on what a result was recorded, so no
// comparison silently mixes boxes or builds.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GridKernel string `json:"grid_kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q grid_kernel=%s go=%s commit=%s seed=%d",
		s.NProc, s.GOMAXPROCS, s.CPU, s.GridKernel, s.Go, s.Commit, s.Seed)
}

func stampOf(e *env) stamp {
	return stamp{
		Workload: e.workload, Seed: e.seed, NProc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GridKernel: bitset.GridKernel(), Go: runtime.Version(),
		Commit: commitOf(e.root), Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the source under test: the git revision when the checkout
// is a repository, and always a digest of the Go sources, which also
// identifies a checkout exported without its history.
func commitOf(root string) string {
	digest := sourceDigest(root)
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out)) + "+src:" + digest
	}
	return "src:" + digest
}

func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".s", ".mod":
			if buf, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(buf))
				h.Write(buf)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// rssSampler polls a process's resident set every 10 ms until finish. Peak
// RSS of a long-lived Go process moves with GC timing from run to run;
// the median of the samples is the steady figure.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if buf, err := os.ReadFile(path); err == nil {
				if f := strings.Fields(string(buf)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.samples = append(s.samples, pages*page/(1<<20))
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples in MB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
