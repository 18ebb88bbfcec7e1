package stream

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"streamcover/internal/bitset"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

// planTestInstance builds a small instance with varied set sizes (including
// an empty set) so run lists and arenas are non-trivial.
func planTestInstance() *setsystem.Instance {
	sets := [][]int{
		{0, 1, 2, 63, 64, 65},
		{},
		{5, 70, 128, 199},
		{0, 64, 128, 192},
		{1, 3, 5, 7, 9, 11, 13},
		{199},
	}
	return setsystem.FromSets(200, sets)
}

// passItem is a deep copy of one streamed item, with the run list the
// consumer would end up using (attached, or built from the elements).
type passItem struct {
	id    int
	elems []int32
	runs  []bitset.Run
}

// drainPass resets s and collects one full pass, deep-copying every view.
func drainPass(t *testing.T, s Stream) []passItem {
	t.Helper()
	s.Reset()
	var out []passItem
	for {
		it, ok := s.Next()
		if !ok {
			break
		}
		pi := passItem{id: it.ID, elems: append([]int32(nil), it.Elems...)}
		runs, _ := it.RunsInto(nil)
		pi.runs = append([]bitset.Run(nil), runs...)
		out = append(out, pi)
	}
	if err := PassErr(s); err != nil {
		t.Fatalf("pass failed: %v", err)
	}
	return out
}

// requireSamePasses drives both streams for passes full passes and requires
// identical items (IDs, elements, and effective run lists) each pass.
func requireSamePasses(t *testing.T, got, want Stream, passes int) {
	t.Helper()
	for p := 0; p < passes; p++ {
		g, w := drainPass(t, got), drainPass(t, want)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("pass %d diverged:\ngot  %+v\nwant %+v", p, g, w)
		}
	}
}

// TestBuildPlanReplayAttachesRuns replays one plan under every arrival
// order: the source keeps drawing the order (a fresh shuffle each pass for
// RandomEachPass) while every payload, with its prebuilt run list, comes
// from the plan.
func TestBuildPlanReplayAttachesRuns(t *testing.T) {
	in := planTestInstance()
	plan, err := BuildPlan(FromInstance(in, Adversarial, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes() <= 0 {
		t.Fatalf("plan bytes = %d, want > 0", plan.Bytes())
	}
	for _, order := range []Order{Adversarial, RandomOnce, RandomEachPass} {
		t.Run(order.String(), func(t *testing.T) {
			rs := Replay(FromInstance(in, order, rng.New(9)), plan)
			honest := FromInstance(in, order, rng.New(9))
			requireSamePasses(t, rs, honest, 4)
			// Every replayed item must carry a prebuilt run list matching its
			// elements (an empty set has an empty run list).
			rs.Reset()
			for {
				it, ok := rs.Next()
				if !ok {
					break
				}
				if len(it.Elems) > 0 && it.Runs == nil {
					t.Fatalf("set %d replayed without prebuilt runs", it.ID)
				}
				if want := bitset.AppendRuns(nil, it.Elems); !slices.Equal(it.Runs, want) {
					t.Fatalf("set %d runs = %v, want %v", it.ID, it.Runs, want)
				}
			}
		})
	}
}

// TestBuildPlanBudget checks the budget boundary: exactly Bytes() fits,
// one byte less (or a budget of 1) refuses the plan.
func TestBuildPlanBudget(t *testing.T) {
	in := planTestInstance()
	if _, err := BuildPlan(FromInstance(in, Adversarial, nil), 1); !errors.Is(err, ErrPlanBudget) {
		t.Fatalf("err = %v, want ErrPlanBudget", err)
	}
	plan, err := BuildPlan(FromInstance(in, Adversarial, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(FromInstance(in, Adversarial, nil), plan.Bytes()); err != nil {
		t.Fatalf("a budget of exactly Bytes() = %d must fit: %v", plan.Bytes(), err)
	}
	if _, err := BuildPlan(FromInstance(in, Adversarial, nil), plan.Bytes()-1); !errors.Is(err, ErrPlanBudget) {
		t.Fatalf("budget Bytes()-1 = %d: err = %v, want ErrPlanBudget", plan.Bytes()-1, err)
	}
}

// TestBuildPlanBudgetThresholds checks both places recording can blow the
// budget: a budget below one set's table entry, and one that admits every
// table entry but not the run payload.
func TestBuildPlanBudgetThresholds(t *testing.T) {
	in := planTestInstance()
	for _, budget := range []int64{1, int64(in.M())*planSetOverheadBytes + 8} {
		if _, err := BuildPlan(FromInstance(in, Adversarial, nil), budget); !errors.Is(err, ErrPlanBudget) {
			t.Fatalf("budget %d: err = %v, want ErrPlanBudget", budget, err)
		}
	}
}

// dupStream yields the same ID twice in a pass: a malformed source a plan
// must refuse (it would replay the corruption forever).
type dupStream struct{ pos int }

func (d *dupStream) Universe() int { return 8 }
func (d *dupStream) Len() int      { return 2 }
func (d *dupStream) Reset()        { d.pos = 0 }
func (d *dupStream) Next() (Item, bool) {
	if d.pos >= 2 {
		return Item{}, false
	}
	d.pos++
	return Item{ID: 0, Elems: []int32{1, 2}}, true
}

func TestBuildPlanRejectsMalformedSource(t *testing.T) {
	if _, err := BuildPlan(&dupStream{}, 0); err == nil {
		t.Fatal("duplicate IDs within a pass must fail the plan")
	}
}

// TestBuildPlanOverBinaryFileStream covers copy mode: a BinaryFileStream
// decodes every set into one reusable buffer, so the plan must copy the
// elements rather than alias them.
func TestBuildPlanOverBinaryFileStream(t *testing.T) {
	in := planTestInstance()
	path := writeTempBinaryInstance(t, in)
	fs, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if stableItems(fs) {
		t.Fatal("test premise broken: BinaryFileStream should be unstable")
	}
	plan, err := BuildPlan(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := BuildPlan(FromInstance(in, Adversarial, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Bytes()-aliased.Bytes(), int64(in.TotalElems())*4; got != want {
		t.Fatalf("copy mode charges %d bytes over the aliased plan, want %d (4 per copied element)", got, want)
	}
	// The file stream still drives the order; the honest twin is a second
	// stream over the same file.
	honest, err := OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	rs := Replay(fs, plan)
	requireSamePasses(t, rs, honest, 4)
	// Replayed views stay valid after later Next calls, while the source
	// keeps decoding into its buffer.
	rs.Reset()
	var kept []Item
	for {
		it, ok := rs.Next()
		if !ok {
			break
		}
		kept = append(kept, it)
	}
	for _, it := range kept {
		if !slices.Equal(it.Elems, in.Set(it.ID)) {
			t.Fatalf("set %d view changed after the pass: %v, want %v", it.ID, it.Elems, in.Set(it.ID))
		}
	}
}

func TestPlanAliasesStableSources(t *testing.T) {
	in := planTestInstance()
	plan, err := BuildPlan(FromInstance(in, Adversarial, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	// InstanceStream items alias the CSR arena; the plan must alias too,
	// not copy — same backing array means same first-element address.
	for id := 0; id < in.M(); id++ {
		want := in.Set(id)
		got := plan.Item(id).Elems
		if len(want) == 0 {
			continue
		}
		if &got[0] != &want[0] {
			t.Fatalf("set %d: plan copied elements instead of aliasing the arena", id)
		}
	}
}
