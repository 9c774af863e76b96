// Quickstart: train AlexNet on the simulated 12 GB K40c under the
// naive baseline and under the full SuperNeurons runtime, and compare
// peak memory and speed — the paper's pitch in thirty lines.
package main

import (
	"fmt"
	"log"

	superneurons "repro"
)

func main() {
	log.SetFlags(0)
	const batch = 256

	net, err := superneurons.Build("AlexNet", batch)
	if err != nil {
		log.Fatal(err)
	}

	dev := superneurons.TeslaK40c
	fmt.Printf("training %s (batch %d) on %s\n\n", net.Name, batch, dev.Name)

	// Naive strategy: every tensor allocated for the whole iteration.
	baseline, err := superneurons.Run(net, superneurons.BaselineConfig(dev))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- naive baseline ---")
	fmt.Print(superneurons.Summary(baseline))

	// SuperNeurons: liveness + unified tensor pool + cost-aware
	// recomputation + tensor cache + dynamic conv workspaces.
	cfg := superneurons.DefaultConfig(dev)
	cfg.Iterations = 3
	net2, _ := superneurons.Build("AlexNet", batch)
	full, err := superneurons.Run(net2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- SuperNeurons runtime ---")
	fmt.Print(superneurons.Summary(full))

	saving := 1 - float64(full.PeakResident)/float64(baseline.PeakResident)
	fmt.Printf("\npeak memory saving: %.1f%% (%.0f MiB -> %.0f MiB, floor max(l_i) = %.0f MiB)\n",
		100*saving,
		float64(baseline.PeakResident)/(1<<20),
		float64(full.PeakResident)/(1<<20),
		float64(full.LPeak)/(1<<20))
}
