package stream

import (
	"sort"
	"testing"

	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
)

func testInstance(m int) *setsystem.Instance {
	sets := make([][]int, m)
	for i := range sets {
		sets[i] = []int{i % 7}
	}
	return setsystem.FromSets(7, sets)
}

// collectIDs runs one pass and returns the IDs in arrival order.
func collectIDs(s Stream) []int {
	s.Reset()
	var ids []int
	for {
		it, ok := s.Next()
		if !ok {
			return ids
		}
		ids = append(ids, it.ID)
	}
}

func TestAdversarialOrder(t *testing.T) {
	in := testInstance(10)
	s := FromInstance(in, Adversarial, nil)
	ids := collectIDs(s)
	for i, id := range ids {
		if id != i {
			t.Fatalf("adversarial order changed: %v", ids)
		}
	}
	// Same order on the next pass.
	ids2 := collectIDs(s)
	if len(ids2) != 10 {
		t.Fatalf("second pass truncated: %v", ids2)
	}
}

func TestRandomOnceIsPermutationAndStable(t *testing.T) {
	in := testInstance(50)
	s := FromInstance(in, RandomOnce, rng.New(1))
	p1 := collectIDs(s)
	p2 := collectIDs(s)
	if len(p1) != 50 {
		t.Fatalf("pass len %d", len(p1))
	}
	sorted := append([]int(nil), p1...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("not a permutation: %v", p1)
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("RandomOnce order changed between passes")
		}
	}
	// It should actually shuffle (overwhelming probability).
	identity := true
	for i, v := range p1 {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("RandomOnce produced identity permutation (suspicious)")
	}
}

func TestRandomEachPassReshuffles(t *testing.T) {
	in := testInstance(50)
	s := FromInstance(in, RandomEachPass, rng.New(2))
	p1 := collectIDs(s)
	p2 := collectIDs(s)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("RandomEachPass repeated the same order")
	}
}

func TestNextBeforeResetEmpty(t *testing.T) {
	s := FromInstance(testInstance(3), Adversarial, nil)
	if _, ok := s.Next(); ok {
		t.Fatal("Next before Reset returned an item")
	}
}

// countingAlg counts items for a fixed number of passes and reports a
// configurable space profile.
type countingAlg struct {
	passesWanted int
	pass         int
	seen         int
	spaceAt      func(seen int) int
}

func (c *countingAlg) BeginPass(pass int) { c.pass = pass }
func (c *countingAlg) Observe(Item)       { c.seen++ }
func (c *countingAlg) EndPass() bool      { return c.pass+1 >= c.passesWanted }
func (c *countingAlg) Space() int {
	if c.spaceAt == nil {
		return 0
	}
	return c.spaceAt(c.seen)
}

func TestRunAccounting(t *testing.T) {
	in := testInstance(20)
	s := FromInstance(in, Adversarial, nil)
	alg := &countingAlg{passesWanted: 3, spaceAt: func(seen int) int { return seen % 13 }}
	acc, err := Run(s, alg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Passes != 3 {
		t.Fatalf("Passes = %d", acc.Passes)
	}
	if acc.Items != 60 {
		t.Fatalf("Items = %d", acc.Items)
	}
	if acc.PeakSpace != 12 {
		t.Fatalf("PeakSpace = %d, want 12", acc.PeakSpace)
	}
}

// TestRunOneAlgorithmAllocFree pins that driving a lone algorithm costs the
// driver no allocation: its slot stays on the stack.
func TestRunOneAlgorithmAllocFree(t *testing.T) {
	s := FromInstance(testInstance(100), Adversarial, nil)
	alg := &countingAlg{passesWanted: 3}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Run(s, alg, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run of one algorithm allocates %.1f objects per run, want 0", allocs)
	}
}

func TestOrderString(t *testing.T) {
	if Adversarial.String() != "adversarial" || RandomOnce.String() != "random-once" ||
		RandomEachPass.String() != "random-each-pass" {
		t.Fatal("Order.String mismatch")
	}
	if Order(99).String() == "" {
		t.Fatal("unknown order produced empty string")
	}
}
