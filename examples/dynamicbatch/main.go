// Dynamicbatch: train ResNet-50 on a growing batch schedule (the
// dynamic-shape regime of bucketed sequence lengths and batch ramps)
// under a deliberately shrunken pool, and compare the frozen static
// plan against the online adaptive planner.
//
// The static plan is computed for iteration 0's small shape and
// replayed verbatim: the ramp's later shapes OOM and the iterations
// are lost. The adaptive planner watches each iteration's measured
// signals — OOM, peak headroom, stall fraction, the predicted
// footprint of the next declared shape — and widens the
// offload/prefetch/recompute plan at iteration boundaries before the
// bigger shapes arrive.
package main

import (
	"fmt"
	"log"

	superneurons "repro"
	"repro/internal/hw"
)

func main() {
	log.SetFlags(0)

	schedule := superneurons.DynamicSchedules()["ramp50"]
	cfg := superneurons.Config{
		Device:           superneurons.TeslaK40c,
		HostLink:         hw.PCIePinned,
		UseMemPool:       true,
		Liveness:         true,
		DynamicWorkspace: true,
		PoolBytes:        2600 * hw.MiB,
		BatchSchedule:    schedule,
	}
	fmt.Printf("ResNet50 on %s with pool shrunk to %.0f MiB, batch schedule %v\n\n",
		cfg.Device.Name, float64(cfg.PoolBytes)/(1<<20), schedule)

	static, err := superneurons.RunDynamic("ResNet50", cfg)
	if err != nil {
		log.Fatal(err)
	}
	adaptiveCfg := cfg
	adaptiveCfg.AdaptivePlan = true
	adaptive, err := superneurons.RunDynamic("ResNet50", adaptiveCfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, r := range []*superneurons.DynamicResult{static, adaptive} {
		name := "frozen static plan"
		if r.Adaptive {
			name = "adaptive planner"
		}
		fmt.Printf("--- %s ---\n", name)
		for _, it := range r.Iters {
			outcome := "ok"
			if it.OOM {
				outcome = "OOM (iteration lost)"
			}
			replan := ""
			if it.Replanned {
				replan = "  <- replanned"
			}
			fmt.Printf("  iter %d  batch %-3d  offload=%-9v prefetch=%-5v recompute=%-10v peak %5.0f MiB  stall %-10v %s%s\n",
				it.Index, it.Batch, it.Offload, it.Prefetch, it.Recompute,
				float64(it.PoolPeak)/(1<<20), it.StallTime, outcome, replan)
		}
		fmt.Printf("  total: %d OOM failures, %d replans, %d images in %v (%.1f img/s)\n\n",
			r.OOMFailures, r.Replans, r.Images, r.TotalTime, r.Throughput)
	}

	fmt.Printf("adaptive trained %dx the images (%d vs %d) and lost %d fewer iterations\n",
		adaptive.Images/max(static.Images, 1), adaptive.Images, static.Images,
		static.OOMFailures-adaptive.OOMFailures)
}
