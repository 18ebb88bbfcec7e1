package streamcover_test

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/bitset"
	"streamcover/internal/catalog"
	"streamcover/internal/core"
	"streamcover/internal/registry"
	"streamcover/internal/service"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// backends is the matrix's stream-backend column. Each file backend is one
// encoding of the row's instance. Locally, covercli -in re-reads it every
// pass, and covercli -in -replay loads it once (text and SCB1 decoded, SCB2
// mapped). Remotely, coverd decodes an upload onto the heap, or maps an
// SCB2 file it loads itself (coverd -load). scb2-heap is the SCB2 file
// decoded onto the heap on both sides.
var backends = []struct {
	name       string
	ext        string
	encode     func(io.Writer, *streamcover.Instance) error // nil: the instance in memory
	heap, mmap bool
}{
	{"memory", "", nil, false, false},
	{"text", "txt", streamcover.WriteInstance, false, false},
	{"scb1", "scb1", streamcover.WriteInstanceBinary, false, false},
	{"scb2-heap", "scb2", streamcover.WriteInstanceSCB2, true, false},
	{"scb2-mmap", "scb2", streamcover.WriteInstanceSCB2, false, true},
}

// row is one (instance, catalog request) pair of the matrix.
type row struct {
	inst *streamcover.Instance
	req  catalog.Request
	// golden is a value recorded from the scalar observe plane at one
	// worker, never re-recorded; nil makes the row's memory / 1-worker /
	// replay-off / local / scalar cell its golden.
	golden *catalog.Result
	// pairwise is 0 to run the full product of the columns. The two golden
	// instances, 1 and 2, share one pairwise cover instead, in which the
	// instance is a sixth column.
	pairwise int
}

// goldenRows are the two golden instances, planted 2048×256 and 4096×512,
// with their values recorded in adversarial order.
func goldenRows() []row {
	return []row{
		{inst: planted(1, 2048, 256, 5), req: catalog.Request{Alpha: 2, Seed: 7, SampleConstant: 2},
			golden: &catalog.Result{Cover: []int{54, 64, 85, 210, 229}, Guess: 6, Passes: 3, SpaceWords: 339972}},
		{inst: planted(2, 4096, 512, 6), req: catalog.Request{Alpha: 3, Seed: 11, SampleConstant: 2},
			golden: &catalog.Result{Cover: []int{85, 162, 226, 306, 386, 387}, Guess: 6, Passes: 3, SpaceWords: 402258}},
	}
}

// in returns r in arrival order o; a recorded golden holds in adversarial
// order only.
func (r row) in(o string) row {
	r.req.Order = o
	if o != "adversarial" {
		r.golden = nil
	}
	return r
}

// cell is one point of the columns: backends[b], the matrix's w-th worker
// count, replay, place and the matrix's k-th grid-kernel body. The zero
// cell is memory / 1 worker / replay off / local / scalar.
type cell struct {
	b, w           int
	replay, remote bool
	k              int
}

// TestConformance is the determinism conformance matrix. Every cell of
// backend × workers {1, 4, GOMAXPROCS, 0} × replay {off, on} × {local,
// remote} × grid kernel (bitset.GridKernels) must return its row's golden
// bit for bit: cover (in order), guess, covered count, passes and peak
// words. Local cells run what covercli runs; remote cells upload to coverd
// and solve with no_cache, on a scheduler with replay on or one with
// DisableReplay. A cell with no meaning is skipped: file backends apply
// only to setcover in adversarial order, and replay and the kernel only to
// setcover. A 256×64 instance runs the full product for every catalog
// entry, order and seed, as do three more setcover instances; the two
// golden instances (2048×256 and 4096×512) share a pairwise cover.
func TestConformance(t *testing.T) {
	small := planted(4, 256, 64, 4)
	uniform := streamcover.GenerateUniform(13, 2048, 256, 64, 512)
	var rows []row
	for _, algo := range catalog.Algos {
		for _, order := range catalog.Orders {
			for _, seed := range []uint64{0, 1 << 40} {
				req := catalog.Request{Algo: algo, Order: order, Seed: seed}
				if algo == "maxcover" {
					req.K = 4
				}
				rows = append(rows, row{inst: small, req: req})
			}
		}
	}
	for i, g := range goldenRows() {
		for _, order := range catalog.Orders {
			g := g.in(order)
			g.pairwise = i + 1
			rows = append(rows, g)
		}
	}
	rows = append(rows,
		row{inst: small, req: catalog.Request{Seed: 5, SampleConstant: 2, GreedySubsolver: true}},
		row{inst: small, req: catalog.Request{Algo: "maxcover", K: 8, Seed: 3, GreedySubsolver: true}},
		// At ε 0.5 the sample is 177 (k 2) or 354 (k 4) of 2,048 elements,
		// so the seed reaches the result; at the default ε 0.1 every
		// maxcover row above samples the whole universe.
		row{inst: uniform, req: catalog.Request{Algo: "maxcover", K: 2, Epsilon: 0.5, Seed: 3},
			golden: &catalog.Result{Cover: []int{60, 137}, Covered: 878, Passes: 1, SpaceWords: 6841}},
		row{inst: uniform, req: catalog.Request{Algo: "maxcover", K: 4, Epsilon: 0.5, Seed: 3, GreedySubsolver: true},
			golden: &catalog.Result{Cover: []int{21, 37, 177, 184}, Covered: 1365, Passes: 1, SpaceWords: 13240}},
		row{inst: streamcover.GenerateUniform(5, 512, 128, 32, 96), req: catalog.Request{Algo: "progressive"},
			golden: &catalog.Result{Cover: []int{4, 5, 6, 7, 8, 9, 11, 13, 14, 18, 19, 23, 25, 30, 37, 40, 41, 44, 51, 54, 65, 109},
				Passes: 8, SpaceWords: 534}},
		// Greedy needs 11 sets here, so the branch-and-bound searches; the
		// golden is its discovery order.
		row{inst: streamcover.GenerateUniform(9, 64, 48, 6, 14), req: catalog.Request{Algo: "exact"},
			golden: &catalog.Result{Cover: []int{17, 4, 47, 2, 9, 14, 24, 35, 10, 13}}},
		// The guess grid passes every lane-liveness regime here: all
		// lanes live on the first pass, then fewer as guesses finish, down
		// to the sole-live-lane kernels.
		row{inst: planted(9, 600, 96, 6), req: catalog.Request{Alpha: 2, Seed: 17}},
		row{inst: planted(21, 1024, 128, 4), req: catalog.Request{Alpha: 2, Epsilon: 0.5, SampleConstant: 2, Seed: 77}},
		// Its file cells pin covercli -in's solve, whose output make
		// serve-smoke diffs coverd against.
		row{inst: planted(23, 1024, 128, 4), req: catalog.Request{Alpha: 2, Seed: 31, SampleConstant: 2}},
	)
	m := newMatrix(t)
	for _, r := range rows {
		req, err := catalog.Normalize(r.req)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%dx%d/%s/%s/seed=%d", r.inst.N, r.inst.M(), req.Algo, req.Order, req.Seed)
		if req.K > 0 {
			name += fmt.Sprintf("/k=%d", req.K)
		}
		if req.GreedySubsolver {
			name += "/greedy-subsolver"
		}
		t.Run(name, func(t *testing.T) {
			m.check(t, r, func(c cell) bool {
				// In adversarial order, any two values of any two of
				// instance, backend, workers, replay, place and kernel
				// meet in some cell.
				return r.pairwise == 0 || c == cell{} ||
					bit(c.replay) == (c.b+c.w)%2 && bit(c.remote) == (c.b+c.w/2)%2 && (c.b+c.w+c.w/2)%2 == r.pairwise-1 &&
						c.k == (c.b/2+c.w)%len(m.kernels)
			})
		})
	}
}

// planted is streamcover.GeneratePlanted's instance.
func planted(seed uint64, n, m, opt int) *streamcover.Instance {
	inst, _ := streamcover.GeneratePlanted(seed, n, m, opt)
	return inst
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The tests below are slices of the matrix, each run in full over the
// columns its name is about: the same cell runner, worker column and
// goldens as TestConformance, on local cells under the kernel body init
// picked.

// TestGuessGridMatchesScalarGolden: the golden rows solved from memory,
// replay off, at each worker count.
func TestGuessGridMatchesScalarGolden(t *testing.T) {
	m := newMatrix(t)
	rows := goldenRows()
	for w, n := range m.workers {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			for _, r := range rows {
				m.check(t, r, func(c cell) bool { return c == cell{w: w, k: m.ambient} })
			}
		})
	}
}

// TestReplayPlanMatchesScalarGolden: the golden rows served from a replay
// plan at each worker count.
func TestReplayPlanMatchesScalarGolden(t *testing.T) {
	m := newMatrix(t)
	rows := goldenRows()
	for w, n := range m.workers {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			for _, r := range rows {
				m.check(t, r, func(c cell) bool { return c == cell{w: w, replay: true, k: m.ambient} })
			}
		})
	}
}

// TestReplayPlanMatchesHonest: the golden rows from memory, replay off and
// on, in every arrival order and at each worker count. RandomEachPass is
// the adversarial case for replay: the instance stream must keep drawing
// fresh permutations while payloads come from the plan.
func TestReplayPlanMatchesHonest(t *testing.T) {
	m := newMatrix(t)
	rows := goldenRows()
	for _, order := range catalog.Orders {
		for w, n := range m.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", order, n), func(t *testing.T) {
				for _, r := range rows {
					m.check(t, r.in(order), func(c cell) bool { return c.b == 0 && c.w == w && !c.remote && c.k == m.ambient })
				}
			})
		}
	}
}

// TestReplayFileSolveParity: the 2048×256 golden row from every file
// backend, re-read each pass and loaded once for a replay plan, at each
// worker count.
func TestReplayFileSolveParity(t *testing.T) {
	m := newMatrix(t)
	r := goldenRows()[0]
	for w, n := range m.workers {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			m.check(t, r, func(c cell) bool { return c.b > 0 && c.w == w && !c.remote && c.k == m.ambient })
		})
	}
}

// TestSolveSetCoverParallelDeterminism: setcover rows of two instance
// families from memory at every worker count.
func TestSolveSetCoverParallelDeterminism(t *testing.T) {
	planted11 := planted(11, 2048, 256, 4)
	clustered := streamcover.GenerateClustered(12, 1024, 128, 8, 200)
	m := newMatrix(t)
	for _, tc := range []struct {
		name string
		r    row
	}{
		{"planted/adversarial", row{inst: planted11, req: catalog.Request{Alpha: 2, Seed: 7, SampleConstant: 2}}},
		{"planted/random-once", row{inst: planted11, req: catalog.Request{Alpha: 2, Seed: 7, SampleConstant: 2, Order: "random-once"}}},
		{"planted/random-each-pass", row{inst: planted11, req: catalog.Request{Alpha: 3, Seed: 9, SampleConstant: 2, Order: "random-each-pass"}}},
		{"clustered/greedy-subsolver", row{inst: clustered, req: catalog.Request{Alpha: 2, Seed: 5, SampleConstant: 2, GreedySubsolver: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m.check(t, tc.r, func(c cell) bool { return c.b == 0 && !c.replay && !c.remote && c.k == m.ambient })
		})
	}
}

// matrix holds what the cells share: the worker and kernel columns, the
// instance files, one coverd per backend, the content hashes already
// uploaded to each, and the goldens already solved.
type matrix struct {
	workers []int
	kernels []string
	ambient int // the index in kernels of the body init picked
	dir     string
	mu      sync.Mutex // guards the instance files and hashes
	servers []coverd
	hashes  map[upload]string
	goldens map[goldenKey]catalog.Result
}

// coverd is one registry served by two schedulers: replay on (the default)
// and DisableReplay.
type coverd struct {
	reg     *registry.Registry
	on, off *client.Client
}

type upload struct {
	inst    *streamcover.Instance
	backend int
}

type goldenKey struct {
	inst *streamcover.Instance
	req  catalog.Request
}

func newMatrix(t *testing.T) *matrix {
	m := &matrix{kernels: bitset.GridKernels(), dir: t.TempDir(), hashes: map[upload]string{}, goldens: map[goldenKey]catalog.Result{}}
	m.ambient = slices.Index(m.kernels, bitset.GridKernel())
	t.Cleanup(func() {
		if err := bitset.SetGridKernel(m.kernels[m.ambient]); err != nil {
			t.Error(err)
		}
	})
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
		if !slices.Contains(m.workers, w) {
			m.workers = append(m.workers, w)
		}
	}
	for range backends {
		d := coverd{reg: registry.New(registry.Config{})}
		for _, disable := range []bool{false, true} {
			sched := service.NewScheduler(d.reg, service.Config{Slots: 1, JobWorkers: max(4, runtime.GOMAXPROCS(0)), DisableReplay: disable})
			srv := httptest.NewServer(service.NewServer(d.reg, sched, 0))
			t.Cleanup(func() {
				srv.Close()
				sched.Stop()
			})
			if disable {
				d.off = client.New(srv.URL)
			} else {
				d.on = client.New(srv.URL)
			}
		}
		m.servers = append(m.servers, d)
	}
	return m
}

// check runs the cells of r that keep selects and requires each to equal
// r's golden. A cell with no meaning is skipped: file backends apply only
// to setcover in adversarial order, and replay and the kernel only to
// setcover. The kernel switch is process-wide, so the cells of one body
// run together, GOMAXPROCS at a time (at most 8, well inside a coverd
// queue), before the next body's.
func (m *matrix) check(t *testing.T, r row, keep func(cell) bool) {
	t.Helper()
	req, err := catalog.Normalize(r.req)
	if err != nil {
		t.Fatal(err)
	}
	setcover := req.Algo == catalog.SetCover
	want := r.golden
	if want == nil {
		want = m.golden(t, r.inst, req)
	}
	for k, kernel := range m.kernels {
		var cells []cell
		for b := range backends {
			for w := range m.workers {
				for _, replay := range []bool{false, true} {
					for _, remote := range []bool{false, true} {
						c := cell{b, w, replay, remote, k}
						switch {
						case b > 0 && !(setcover && req.Order == "adversarial"), (replay || k > 0) && !setcover, !keep(c):
							continue
						case c == cell{} && r.golden == nil:
							continue // the golden itself
						}
						cells = append(cells, c)
					}
				}
			}
		}
		if err := bitset.SetGridKernel(kernel); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		slots := make(chan struct{}, min(runtime.GOMAXPROCS(0), 8))
		for _, c := range cells {
			wg.Add(1)
			slots <- struct{}{}
			go func() {
				defer func() { <-slots; wg.Done() }()
				if got, ok := m.solve(t, r.inst, req, c); ok && !reflect.DeepEqual(got, *want) {
					t.Errorf("%s: got %+v, want %+v", m.name(c), got, *want)
				}
			}()
		}
		wg.Wait()
	}
}

// golden returns the memory / 1-worker / replay-off / local / scalar cell
// of a row with no recorded golden, solving it once per matrix.
func (m *matrix) golden(t *testing.T, inst *streamcover.Instance, req catalog.Request) *catalog.Result {
	t.Helper()
	k := goldenKey{inst, req}
	g, ok := m.goldens[k]
	if !ok {
		if err := bitset.SetGridKernel(m.kernels[0]); err != nil {
			t.Fatal(err)
		}
		if g, ok = m.solve(t, inst, req, cell{}); !ok {
			t.FailNow()
		}
		m.goldens[k] = g
	}
	return &g
}

func (m *matrix) name(c cell) string {
	return fmt.Sprintf("%s/workers=%d/replay=%t/remote=%t/kernel=%s", backends[c.b].name, m.workers[c.w], c.replay, c.remote, m.kernels[c.k])
}

// solve runs cell c, whose kernel body the caller has switched to, and
// checks that a set cover result covers; it reports false if the solve
// failed.
func (m *matrix) solve(t *testing.T, inst *streamcover.Instance, req catalog.Request, c cell) (catalog.Result, bool) {
	t.Helper()
	got, err := m.run(t.Context(), inst, req, c)
	if err != nil {
		t.Errorf("%s: %v", m.name(c), err)
		return got, false
	}
	if req.Algo != "maxcover" && !inst.IsCover(got.Cover) {
		t.Errorf("%s: %v is not a cover", m.name(c), got.Cover)
	}
	return got, true
}

// file returns the path of inst's file in backend b's encoding, writing it
// on first use, or "" for the memory backend.
func (m *matrix) file(inst *streamcover.Instance, b int) (string, error) {
	if backends[b].encode == nil {
		return "", nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	path := filepath.Join(m.dir, fmt.Sprintf("%p.%s", inst, backends[b].ext))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := backends[b].encode(f, inst); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// run solves one cell.
func (m *matrix) run(ctx context.Context, inst *streamcover.Instance, req catalog.Request, c cell) (catalog.Result, error) {
	be, workers := backends[c.b], m.workers[c.w]
	path, err := m.file(inst, c.b)
	if err != nil {
		return catalog.Result{}, err
	}
	if c.remote {
		return m.remote(ctx, inst, path, req, c.b, workers, c.replay)
	}
	if path != "" && !be.heap && !c.replay {
		// covercli -in: Algorithm 1 re-reads the file every pass.
		fs, err := stream.Open(path)
		if err != nil {
			return catalog.Result{}, err
		}
		defer fs.Close()
		cfg := core.Config{Alpha: req.Alpha, Epsilon: req.Epsilon, SampleC: req.SampleConstant, Workers: workers}
		if req.GreedySubsolver {
			cfg.Subsolver = core.SubsolverGreedy
		}
		best, acc, err := core.SolveStream(fs, cfg, core.SolveFileRNG(req.Seed))
		return catalog.Result{Cover: best.Cover, Guess: best.Guess, Passes: acc.Passes, SpaceWords: acc.PeakSpace}, err
	}
	loaded := inst
	switch {
	case path != "" && be.heap:
		f, err := os.Open(path)
		if err != nil {
			return catalog.Result{}, err
		}
		loaded, err = streamcover.ReadInstance(f)
		f.Close()
		if err != nil {
			return catalog.Result{}, err
		}
	case path != "":
		if loaded, err = setsystem.Load(path); err != nil {
			return catalog.Result{}, err
		}
		defer loaded.Unmap()
	}
	env := catalog.Env{Workers: workers}
	if c.replay {
		plan, err := streamcover.BuildReplayPlan(loaded)
		if err != nil {
			return catalog.Result{}, err
		}
		env.Plan = func() *streamcover.ReplayPlan { return plan }
	}
	return catalog.Run(ctx, loaded, req, env)
}

// remote solves one cell on backend b's coverd.
func (m *matrix) remote(ctx context.Context, inst *streamcover.Instance, path string, req catalog.Request, b, workers int, replay bool) (catalog.Result, error) {
	hash, err := m.upload(ctx, inst, path, b)
	if err != nil {
		return catalog.Result{}, err
	}
	// Workers is not in the result-cache key, so without no_cache a second
	// worker count would only read the cache.
	req.Instance, req.Workers, req.NoCache = hash, workers, true
	c := m.servers[b].off
	if replay {
		c = m.servers[b].on
	}
	job, err := c.Solve(ctx, req)
	if err != nil {
		return catalog.Result{}, err
	}
	if job.Status != client.StatusDone {
		return catalog.Result{}, fmt.Errorf("job %s: %s", job.Status, job.Error)
	}
	return *job.Result, nil
}

// upload returns inst's content hash on backend b's coverd, uploading the
// instance (or, for scb2-mmap, loading its file) the first time.
func (m *matrix) upload(ctx context.Context, inst *streamcover.Instance, path string, b int) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := upload{inst, b}
	if hash, ok := m.hashes[key]; ok {
		return hash, nil
	}
	d := m.servers[b]
	var up client.UploadResponse
	var err error
	switch {
	case path == "":
		up, err = d.on.UploadInstance(ctx, inst)
	case backends[b].mmap:
		up.Hash, _, err = d.reg.LoadFile(path)
	default:
		var f *os.File
		if f, err = os.Open(path); err == nil {
			up, err = d.on.UploadReader(ctx, f)
			f.Close()
		}
	}
	if err == nil {
		m.hashes[key] = up.Hash
	}
	return up.Hash, err
}
