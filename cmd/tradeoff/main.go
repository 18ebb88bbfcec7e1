// Command tradeoff runs the reproduction experiments (E1–E14 in DESIGN.md)
// and prints their tables; EXPERIMENTS.md is generated from its output.
//
// Usage:
//
//	tradeoff -exp all            # run everything (slow, full scale)
//	tradeoff -exp E1,E3 -quick   # selected experiments at test scale
//	tradeoff -exp E2 -format csv # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"streamcover/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment IDs ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
		seed    = flag.Uint64("seed", 20170601, "random seed (tables are deterministic per seed)")
		quick   = flag.Bool("quick", false, "reduced sizes and trial counts")
		format  = flag.String("format", "md", "output format: md or csv")
		workers = flag.Int("workers", 0, "guess-grid worker goroutines (0 = GOMAXPROCS, 1 = sequential); tables are identical at every value")
	)
	flag.Parse()

	ids := experiments.IDs()
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tradeoff: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Printf("# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		default:
			fmt.Println(table.Markdown())
		}
		fmt.Fprintf(os.Stderr, "tradeoff: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
}
