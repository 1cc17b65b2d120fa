// cm5 replays the paper's Section 9 experiment: Cannon's algorithm and
// the GK algorithm race on a simulated CM-5 across matrix sizes, first
// on 64 processors (Figure 4), then on 484/512 processors (Figure 5),
// and the crossover points are compared with the paper's predictions.
package main

import (
	"fmt"
	"log"

	"matscale/internal/experiments"
)

func main() {
	for _, fig := range []int{4, 5} {
		f, err := experiments.EfficiencyFigure(fig, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(f.Render())
		fmt.Println()
		fmt.Print(f.Plot())
		switch fig {
		case 4:
			fmt.Println("paper: predicted crossover n = 83, measured n = 96")
		case 5:
			fmt.Println("paper: predicted crossover n = 295 at high efficiency")
		}
		fmt.Println()
	}
}
