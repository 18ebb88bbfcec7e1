package streamcover_test

import (
	"fmt"

	"streamcover"
)

// Solve a small planted instance with Algorithm 1 and verify the cover.
func ExampleSolveSetCover() {
	inst, planted := streamcover.GeneratePlanted(42, 1024, 128, 4)
	res, err := streamcover.SolveSetCover(inst,
		streamcover.WithAlpha(2),
		streamcover.WithSeed(7),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", inst.IsCover(res.Cover))
	fmt.Println("cover size:", len(res.Cover), "optimum:", len(planted))
	fmt.Println("passes:", res.Passes, "<= bound:", res.Passes <= 5)
	// Output:
	// feasible: true
	// cover size: 4 optimum: 4
	// passes: 3 <= bound: true
}

// Pick k sets maximizing coverage in a single pass.
func ExampleSolveMaxCoverage() {
	inst := streamcover.GenerateUniform(3, 2000, 100, 100, 400)
	res, err := streamcover.SolveMaxCoverage(inst, 3, streamcover.WithSeed(5))
	if err != nil {
		panic(err)
	}
	fmt.Println("chose:", len(res.Chosen), "sets in", res.Passes, "pass")
	fmt.Println("covered at least a third:", res.Covered > inst.N/3)
	// Output:
	// chose: 3 sets in 1 pass
	// covered at least a third: true
}

// Generate a lower-bound-hard instance with ground truth.
func ExampleGenerateHardSetCover() {
	inst, info := streamcover.GenerateHardSetCover(1, 1024, 8, 2, 1)
	pair := []int{info.IStar, info.M + info.IStar}
	fmt.Println("sets:", inst.M())
	fmt.Println("planted pair covers universe:", inst.IsCover(pair))
	// Output:
	// sets: 16
	// planted pair covers universe: true
}

// Assemble an instance set by set, then solve it.
func ExampleNewInstanceBuilder() {
	// Six sensors, each watching some cells of a 12-cell corridor.
	b := streamcover.NewInstanceBuilder(12)
	b.AddSet([]int{0, 1, 2, 3})
	b.AddSet([]int{2, 3, 4, 5})
	b.AddSet([]int{4, 5, 6, 7})
	b.AddSet([]int{6, 7, 8, 9})
	b.AddSet([]int{8, 9, 10, 11})
	b.AddSet([]int{0, 5, 10})
	inst := b.Build()
	fmt.Println("universe:", inst.N, "sets:", inst.M())

	res, err := streamcover.SolveSetCover(inst, streamcover.WithAlpha(2), streamcover.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("cover:", res.Cover, "feasible:", inst.IsCover(res.Cover))
	// Output:
	// universe: 12 sets: 6
	// cover: [0 2 4] feasible: true
}
