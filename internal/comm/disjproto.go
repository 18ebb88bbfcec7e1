package comm

import (
	"fmt"
	"slices"

	"streamcover/internal/hardinst"
	"streamcover/internal/rng"
)

// DisjProtocol is a two-party protocol for Disj_t whose transcript the
// information-cost experiments analyze (E9). Run answers "disjoint?" and
// appends its messages to tr.
type DisjProtocol interface {
	Name() string
	Run(d hardinst.Disj, r *rng.RNG, tr *Transcript) (disjoint bool)
}

// FullRevealDisj sends Alice's whole set; Bob answers exactly. Its internal
// information cost is H(A | B) = Θ(t) — the ceiling every protocol's cost
// is compared against.
type FullRevealDisj struct{}

// Name implements DisjProtocol.
func (FullRevealDisj) Name() string { return "full-reveal" }

// Run implements DisjProtocol.
func (FullRevealDisj) Run(d hardinst.Disj, _ *rng.RNG, tr *Transcript) bool {
	tr.Append(EncodeIntSet(d.A), SetBits(d.T, len(d.A)))
	disjoint := len(hardinst.Intersection(d.A, d.B)) == 0
	if disjoint {
		tr.Append("yes", 1)
	} else {
		tr.Append("no", 1)
	}
	return disjoint
}

// SampledDisj sends S uniformly random elements of Alice's set; Bob reports
// whether any of them is in his set (a certificate of intersection). One-
// sided error: a reported hit is always correct; a miss is answered
// "disjoint" and errs with probability ≈ (1 − S/|A|) on intersecting
// inputs. Driving the error below a constant therefore needs S = Θ(t),
// which is exactly the Ω(t) information cost of Proposition 2.5 showing up
// operationally.
type SampledDisj struct {
	S int
}

// Name implements DisjProtocol.
func (p SampledDisj) Name() string { return fmt.Sprintf("sampled-%d", p.S) }

// Run implements DisjProtocol.
func (p SampledDisj) Run(d hardinst.Disj, r *rng.RNG, tr *Transcript) bool {
	s := p.S
	if s > len(d.A) {
		s = len(d.A)
	}
	sample := make([]int, 0, s)
	if s > 0 {
		for _, idx := range r.KSubset(len(d.A), s) {
			sample = append(sample, d.A[idx])
		}
	}
	tr.Append(EncodeIntSet(sample), SetBits(d.T, len(sample)))
	hit := false
	for _, e := range sample {
		if _, in := slices.BinarySearch(d.B, e); in {
			hit = true
			break
		}
	}
	if hit {
		tr.Append("hit", 1)
		return false
	}
	tr.Append("miss", 1)
	return true
}

// SilentDisj communicates one constant bit and always answers
// "intersecting" (the majority answer under D_Disj is a fair coin, so its
// error is 1/2). Its internal information cost is 0: the floor for the
// Yes/No cost-relation checks of Lemma 3.5.
type SilentDisj struct{}

// Name implements DisjProtocol.
func (SilentDisj) Name() string { return "silent" }

// Run implements DisjProtocol.
func (SilentDisj) Run(_ hardinst.Disj, _ *rng.RNG, tr *Transcript) bool {
	tr.Append("0", 1)
	return false
}
