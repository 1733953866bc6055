// Habitat models the upstream use case from the paper's introduction: a
// sensor in a wildlife-monitoring field reports to multiple sinks. The
// deployment is the paper's random topology (200 nodes, 200 m x 200 m);
// the example runs a small Monte-Carlo comparison so the numbers carry
// confidence intervals rather than single-run noise.
//
//	go run ./examples/habitat
package main

import (
	"fmt"
	"log"
	"os"

	"mtmrp"
)

func main() {
	const (
		sinks = 15 // gateways interested in this sensor's detections
		runs  = 10 // Monte-Carlo rounds (the paper uses 100)
	)

	fmt.Printf("Habitat monitoring: source -> %d sinks, random 200-node fields, %d rounds\n\n",
		sinks, runs)

	res, err := mtmrp.GroupSizeSweep(mtmrp.SweepConfig{
		Topo:  mtmrp.RandomTopo,
		Sizes: []int{sinks},
		Runs:  runs,
		Seed:  2024,
		// The sweep runs on the deterministic worker pool; a progress
		// callback watches it go by.
		Engine: mtmrp.EngineOptions{
			Progress: func(p mtmrp.Progress) {
				fmt.Fprintf(os.Stderr, "\rround %d/%d ", p.Done, p.Total)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\rdone: %d rounds on %d workers in %v\n\n",
		res.Stats.Completed, res.Stats.Workers, res.Stats.Wall)

	fmt.Printf("%-16s %22s %16s %15s\n",
		"protocol", "transmissions (±CI95)", "extra nodes", "relay profit")
	for _, row := range res.Rows {
		tx := res.Cell(row, 0, "overhead")
		ex := res.Cell(row, 0, "extra_nodes")
		rp := res.Cell(row, 0, "relay_profit")
		fmt.Printf("%-16s %14.2f ± %-5.2f %10.2f %15.2f\n",
			row, tx.Mean, tx.CI95, ex.Mean, rp.Mean)
	}

	// Render one representative tree.
	snap, out, err := mtmrp.SnapshotRun(mtmrp.RandomTopo, sinks, mtmrp.MTMRP, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOne MTMRP session (%d transmissions, %d extra nodes):\n",
		out.Result.Transmissions, out.Result.ExtraNodes)
	fmt.Print(snap.Render())
}
