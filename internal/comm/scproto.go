package comm

import (
	"fmt"
	"slices"

	"streamcover/internal/hardinst"
	"streamcover/internal/rng"
)

// SampledSetCover is a genuine two-party protocol for deciding θ on a D_SC
// instance — the communication-layer twin of the streaming distinguisher
// (Theorem 3 is a communication lower bound; the streaming bound follows).
//
// Alice holds the sets her partition assigns her; for each pair where she
// holds exactly one side she sends PerPair uniform elements of that set's
// complement. Bob checks each received sample against his side's
// complement: a pair whose samples never collide with his complement looks
// disjoint-complemented, i.e. covering — evidence for θ=1. The
// communication is ~(good pairs)·PerPair·log₂(n) bits; Theorem 3 says no
// protocol can do the job with o(m·t) bits, and the per-pair sample needed
// to see the t-block collision is Θ(t·log m).
type SampledSetCover struct {
	// PerPair is the number of complement samples sent per good pair.
	PerPair int
}

// Name identifies the protocol.
func (p SampledSetCover) Name() string { return fmt.Sprintf("sc-sampled-%d", p.PerPair) }

// Run executes the protocol on sc under the given partition and returns the
// θ guess along with the transcript (appended to tr).
func (p SampledSetCover) Run(sc *hardinst.SetCoverInstance, part hardinst.Partition,
	r *rng.RNG, tr *Transcript) int {
	n := sc.N
	zeroHit := false
	for _, i := range sc.GoodIndices(part) {
		a, b := sc.AliceSet(i), sc.BobSet(i)
		// Orient so that "Alice's side" is the one she owns.
		aliceSet, bobSet := a, b
		if !part[a] {
			aliceSet, bobSet = b, a
		}
		sample := r.SampleComplement(n, sc.Inst.Set(aliceSet), p.PerPair)
		if len(sample) == 0 {
			// Alice's set covers the universe alone: certain θ=1 evidence.
			tr.Append(fmt.Sprintf("p%d:full", i), 1)
			zeroHit = true
			continue
		}
		tr.Append(fmt.Sprintf("p%d:%s", i, EncodeIntSet(sample)), SetBits(n, len(sample)))
		// Bob: count samples missing from his set too (complement collisions).
		hits := 0
		bobElems := sc.Inst.Set(bobSet)
		for _, e := range sample {
			if _, in := slices.BinarySearch(bobElems, int32(e)); !in {
				hits++
			}
		}
		if hits == 0 {
			zeroHit = true
		}
		tr.Append(fmt.Sprintf("r%d:%d", i, hits), SetBits(n, 1))
	}
	if zeroHit {
		tr.Append("theta=1", 1)
		return 1
	}
	tr.Append("theta=0", 1)
	return 0
}
