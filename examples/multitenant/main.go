// Multitenant: share a two-GPU cluster between nine training jobs
// and compare scheduling policies — the multi-workload scenario
// SuperNeurons' single-job memory manager leaves open.
//
// The scheduler's admission control reuses the core runtime: one
// deterministic dry run per distinct job shape predicts the exact
// pool peak and iteration time, so a job is only placed where its
// whole footprint fits, and a job that cannot fit any idle device is
// rejected up front. On a device, resident jobs time-share the serial
// compute engine round-robin in virtual time.
package main

import (
	"fmt"
	"log"

	superneurons "repro"
)

func main() {
	log.SetFlags(0)

	cluster := superneurons.Cluster{Device: superneurons.TeslaK40c, Devices: 2}
	jobs := superneurons.DefaultClusterTrace()
	fmt.Printf("cluster: %d x %s, %.2f GiB usable each\n\n",
		cluster.Devices, cluster.Device.Name, float64(cluster.Capacity())/(1<<30))

	// Admission control: every job's footprint is known before it
	// runs, from one dry run of its memory manager.
	fmt.Println("admission estimates (dry-run peak / iteration time):")
	for _, j := range jobs {
		est, err := superneurons.EstimateJob(j.Network, j.Batch, j.Manager, cluster.Device)
		if err != nil {
			fmt.Printf("  %-12s %-9s b%-4d %-13s rejected: cannot fit an idle device\n",
				j.ID, j.Network, j.Batch, j.Manager)
			continue
		}
		fmt.Printf("  %-12s %-9s b%-4d %-13s peak %8.2f MiB (%4.1f%% of device)  iter %v\n",
			j.ID, j.Network, j.Batch, j.Manager,
			float64(est.PeakBytes)/(1<<20),
			100*float64(est.PeakBytes)/float64(cluster.Capacity()),
			est.IterTime)
	}

	// Replay the same arrival stream under each policy.
	results, err := superneurons.CompareSchedulers(cluster, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npolicy comparison on the same trace:")
	for _, r := range results {
		fmt.Printf("  %-9s makespan %-9v cluster mem util %5.1f%%  mean jct %-9v mean wait %v\n",
			r.Policy, r.Makespan, 100*r.Utilization, r.MeanJCT(), r.MeanWait())
	}

	// The per-job story: FIFO blocks everything behind the urgent job
	// that does not fit; priority preempts for it; packing backfills
	// the small jobs into the gaps.
	fmt.Println("\nwhere each policy wins:")
	pick := func(policy, id string) superneurons.JobSchedule {
		for _, r := range results {
			if r.Policy != policy {
				continue
			}
			for _, j := range r.Jobs {
				if j.ID == id {
					return j
				}
			}
		}
		log.Fatalf("job %s missing under %s", id, policy)
		return superneurons.JobSchedule{}
	}
	f, p, k := pick("fifo", "urgent-alex"), pick("priority", "urgent-alex"), pick("packing", "small-sn")
	fmt.Printf("  urgent-alex waits %v under fifo, %v under priority (preemption at an iteration boundary)\n",
		f.Wait, p.Wait)
	fmt.Printf("  small-sn    waits %v under fifo, %v under packing (backfilled beside the big residents)\n",
		pick("fifo", "small-sn").Wait, k.Wait)
	for _, r := range results {
		for _, j := range r.Jobs {
			if j.Rejected {
				fmt.Printf("  %s is rejected by admission control under every policy: %s\n", j.ID, j.Reason)
			}
		}
		break
	}
}
