// scaling demonstrates Section 3's motivation in simulation: for a
// fixed problem size the speedup of a parallel matrix multiplication
// saturates (and efficiency collapses) as processors are added, while
// growing the problem along the isoefficiency function holds the
// efficiency constant — the scaled-speedup regime.
package main

import (
	"fmt"
	"log"

	"matscale/internal/experiments"
	"matscale/internal/model"
)

func main() {
	pr := model.Params{Ts: 150, Tw: 3}

	// Part 1 — fixed problem size, growing machine: watch the speedup
	// saturate. Cannon's algorithm on the nCUBE-2-like machine.
	pts, err := experiments.SpeedupSaturation(pr, 64, []int{1, 4, 16, 64, 256, 1024, 4096}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderSpeedup(64, pts))
	fmt.Println()

	// Part 2 — grow the problem along the isoefficiency function: the
	// efficiency holds wherever the fixed-size run collapsed.
	iso, err := experiments.IsoefficiencyValidation(pr, 0.5, "cannon", []int{4, 16, 64, 256, 1024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderIso("cannon", iso))
	fmt.Println("-> growing W as Θ(p^1.5) (Table 1's isoefficiency for Cannon) holds E at 0.5.")
}
