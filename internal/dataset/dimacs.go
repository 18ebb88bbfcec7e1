package dataset

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamcover/internal/setsystem"
)

// importDIMACS parses a DIMACS graph file: 'c' comment lines, one
// 'p <format> <nodes> <edges>' problem line, then 1-based 'e u v' edge
// lines. Endpoints must lie in [1, nodes]. The sets are the nodes that
// occur in an edge, in node order, as SNAP's remap makes them: an isolated
// node would be an empty set, useless to a cover, and sizing anything by
// the declared node count would let an 18-byte problem line claim
// gigabytes. Meta.Nodes still reports the declared count. The edge count
// must match the edges actually present — a mismatch means a truncated or
// corrupted file and is an error, not a warning. The <format> word (edge,
// col, ...) is not interpreted.
func importDIMACS(r io.Reader) (*setsystem.Instance, Meta, error) {
	sc := newLineScanner(r)
	var edges [][2]int
	nodes, declaredEdges := -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "p":
			if nodes >= 0 {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: second problem line", line)
			}
			if len(fields) != 4 {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: want 'p <format> <nodes> <edges>', got %q", line, text)
			}
			n, err1 := strconv.Atoi(fields[2])
			e, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || n < 0 || e < 0 {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: bad problem counts %q", line, text)
			}
			nodes, declaredEdges = n, e
		case "e":
			if nodes < 0 {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: edge before problem line", line)
			}
			if len(fields) != 3 {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: want 'e <u> <v>', got %q", line, text)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 1 || v < 1 || u > nodes || v > nodes {
				return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: endpoints %q out of [1,%d]", line, text, nodes)
			}
			edges = append(edges, [2]int{u - 1, v - 1})
		default:
			return nil, Meta{}, fmt.Errorf("dataset: dimacs line %d: unknown line type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, Meta{}, fmt.Errorf("dataset: dimacs: %w", err)
	}
	if nodes < 0 {
		return nil, Meta{}, fmt.Errorf("dataset: dimacs: no problem line")
	}
	if len(edges) != declaredEdges {
		return nil, Meta{}, fmt.Errorf("dataset: dimacs: problem line declares %d edges, file has %d",
			declaredEdges, len(edges))
	}
	in := incidenceInstance(edges)
	return in, Meta{Nodes: nodes, Edges: len(edges)}, nil
}
