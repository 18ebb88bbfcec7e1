// Package dataset imports public real-world dataset formats as set-cover
// instances, opening the empirical setting of Indyk–Mahabadi–Vakilian
// (arXiv:1509.00118) — streaming set cover evaluated on web graphs and
// document corpora — to every solver in this repository.
//
// Three formats are supported, each mapped onto set cover by a standard
// reduction:
//
//   - SNAP edge lists (snap.stanford.edu): whitespace-separated "u v"
//     pairs, '#' comments. Each edge becomes a universe element and each
//     node the set of its incident edges, so a set cover is a vertex
//     cover (the node ids are remapped to 0..m-1 in sorted order, edges
//     numbered in file order).
//   - FIMI transaction itemsets (fimi.uantwerpen.be): one transaction of
//     whitespace-separated item ids per line. Transactions are the sets
//     (in file order), items the universe (remapped to 0..n-1 in sorted
//     id order) — cover all items with the fewest transactions.
//   - DIMACS graph files: "p edge <nodes> <edges>" then 1-based "e u v"
//     lines. The same vertex-cover reduction as SNAP, remapped the same
//     way: the sets are the nodes that occur in an edge, so isolated
//     nodes (and a problem line's node count) cost nothing.
//
// Import returns a normalized, validated Instance plus a Meta describing
// both the produced instance and the source shape. Every importer is
// deterministic: the same input bytes always yield the same instance (and
// therefore the same content hash in coverd's registry).
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"streamcover/internal/setsystem"
)

// Format identifies a supported source format.
type Format int

const (
	// SNAP is a whitespace-separated edge list with '#' comments.
	SNAP Format = iota
	// FIMI is one transaction of whitespace-separated item ids per line.
	FIMI
	// DIMACS is the DIMACS graph format ("p edge" header, "e u v" lines).
	DIMACS
)

// Formats lists the accepted ParseFormat spellings, for CLI usage lines.
var Formats = []string{"snap", "fimi", "dimacs"}

func (f Format) String() string {
	switch f {
	case SNAP:
		return "snap"
	case FIMI:
		return "fimi"
	case DIMACS:
		return "dimacs"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat parses a format name as spelled in Formats.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "snap":
		return SNAP, nil
	case "fimi":
		return FIMI, nil
	case "dimacs":
		return DIMACS, nil
	default:
		return 0, fmt.Errorf("dataset: unknown format %q (valid: snap, fimi, dimacs)", s)
	}
}

// Meta describes an imported instance: the produced shape plus the source
// counts in the source's own vocabulary (nodes/edges for the graph
// formats, transactions/items for FIMI).
type Meta struct {
	Format Format
	// N, M and TotalElems are the produced instance's universe size,
	// set count and Σ|S_i|.
	N, M, TotalElems int
	// Nodes and Edges are set for SNAP and DIMACS.
	Nodes, Edges int
	// Transactions and Items are set for FIMI.
	Transactions, Items int
}

// Summary is a one-line human description, used by coverimport.
func (m Meta) Summary() string {
	switch m.Format {
	case FIMI:
		return fmt.Sprintf("fimi: %d transactions over %d items -> instance n=%d m=%d total=%d",
			m.Transactions, m.Items, m.N, m.M, m.TotalElems)
	default:
		return fmt.Sprintf("%s: %d nodes, %d edges -> instance n=%d m=%d total=%d",
			m.Format, m.Nodes, m.Edges, m.N, m.M, m.TotalElems)
	}
}

// Import reads a dataset in the given format and returns it as a
// normalized set-cover instance.
func Import(r io.Reader, f Format) (*setsystem.Instance, Meta, error) {
	var (
		in   *setsystem.Instance
		meta Meta
		err  error
	)
	switch f {
	case SNAP:
		in, meta, err = importSNAP(r)
	case FIMI:
		in, meta, err = importFIMI(r)
	case DIMACS:
		in, meta, err = importDIMACS(r)
	default:
		return nil, Meta{}, fmt.Errorf("dataset: unknown format %v", f)
	}
	if err != nil {
		return nil, Meta{}, err
	}
	in.SortSets()
	if verr := in.Validate(); verr != nil {
		return nil, Meta{}, fmt.Errorf("dataset: importer produced an invalid instance: %w", verr)
	}
	meta.Format = f
	meta.N, meta.M, meta.TotalElems = in.N, in.M(), in.TotalElems()
	return in, meta, nil
}

// newLineScanner returns a scanner sized for dataset lines (FIMI
// transactions and SNAP adjacency dumps can run long).
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	return sc
}

// rank maps each distinct id to its position in sorted order: the dense
// remap every importer applies to source ids, so that the instance's size
// follows the ids that occur and never the largest one.
func rank(ids map[int]struct{}) map[int]int {
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	index := make(map[int]int, len(sorted))
	for i, id := range sorted {
		index[id] = i
	}
	return index
}

// incidenceInstance builds the vertex-cover-as-set-cover instance shared
// by the graph importers: universe = the edges (numbered in input order),
// one set per node that occurs in an edge, in node-id order, holding the
// edges incident to that node. Self-loops contribute their element once.
// Because edge ids increase in input order, every incident list comes out
// sorted and duplicate-free by construction. The endpoints in edges are
// rewritten to set indices.
func incidenceInstance(edges [][2]int) *setsystem.Instance {
	ids := make(map[int]struct{})
	for _, e := range edges {
		ids[e[0]] = struct{}{}
		ids[e[1]] = struct{}{}
	}
	index := rank(ids)
	nodes := len(index)
	deg := make([]int, nodes)
	for i, e := range edges {
		e = [2]int{index[e[0]], index[e[1]]}
		edges[i] = e
		deg[e[0]]++
		if e[1] != e[0] {
			deg[e[1]]++
		}
	}
	offs := make([]int, nodes+1)
	for i, d := range deg {
		offs[i+1] = offs[i] + d
	}
	elems := make([]int32, offs[nodes])
	cur := make([]int, nodes)
	copy(cur, offs[:nodes])
	for id, e := range edges {
		elems[cur[e[0]]] = int32(id)
		cur[e[0]]++
		if e[1] != e[0] {
			elems[cur[e[1]]] = int32(id)
			cur[e[1]]++
		}
	}
	b := setsystem.NewBuilder(len(edges))
	b.Grow(nodes, len(elems))
	for i := 0; i < nodes; i++ {
		b.AddSet32(elems[offs[i]:offs[i+1]])
	}
	return b.Build()
}
