package dataset

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamcover/internal/setsystem"
)

// importSNAP parses a SNAP-style edge list: one "u v" pair per line,
// whitespace-separated, with '#' (and '%', used by some mirrors) comment
// lines. Node ids are arbitrary non-negative integers and are remapped to
// dense set indices in sorted-id order; edges are numbered in file order
// and become the universe. Lines may carry trailing columns (weights,
// timestamps); only the first two fields are read.
func importSNAP(r io.Reader) (*setsystem.Instance, Meta, error) {
	sc := newLineScanner(r)
	var edges [][2]int
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, Meta{}, fmt.Errorf("dataset: snap line %d: want 'u v', got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, Meta{}, fmt.Errorf("dataset: snap line %d: bad node pair %q", line, text)
		}
		edges = append(edges, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, Meta{}, fmt.Errorf("dataset: snap: %w", err)
	}
	in := incidenceInstance(edges)
	return in, Meta{Nodes: in.M(), Edges: len(edges)}, nil
}
