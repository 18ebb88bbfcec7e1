package dataset

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamcover/internal/setsystem"
)

// importFIMI parses a FIMI transaction database: one transaction of
// whitespace-separated non-negative item ids per line (the format of the
// frequent-itemset-mining benchmark corpora: retail, kosarak, accidents).
// Transactions become the sets, in file order; items become the universe,
// remapped to dense element ids in sorted item-id order. Blank lines are
// skipped and '#' comments tolerated (the raw corpora have neither, but
// fixture files want a comment channel).
func importFIMI(r io.Reader) (*setsystem.Instance, Meta, error) {
	sc := newLineScanner(r)
	var transactions [][]int
	ids := map[int]struct{}{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		tx := make([]int, 0, len(fields))
		for _, f := range fields {
			item, err := strconv.Atoi(f)
			if err != nil || item < 0 {
				return nil, Meta{}, fmt.Errorf("dataset: fimi line %d: bad item %q", line, f)
			}
			tx = append(tx, item)
			ids[item] = struct{}{}
		}
		transactions = append(transactions, tx)
	}
	if err := sc.Err(); err != nil {
		return nil, Meta{}, fmt.Errorf("dataset: fimi: %w", err)
	}

	index := rank(ids)
	b := setsystem.NewBuilder(len(index))
	total := 0
	for _, tx := range transactions {
		total += len(tx)
	}
	b.Grow(len(transactions), total)
	for _, tx := range transactions {
		for _, item := range tx {
			b.Append(int32(index[item]))
		}
		b.EndSet()
	}
	// Duplicate items within a transaction are legal input; Import's
	// SortSets pass normalizes them away.
	return b.Build(), Meta{Transactions: len(transactions), Items: len(index)}, nil
}
