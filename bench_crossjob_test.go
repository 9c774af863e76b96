package superneurons

import (
	"fmt"
	"testing"
)

// BenchmarkCrossJobPlanner prices the cross-job device planner
// against isolated admission at increasing co-tenancy: 1, 4 and 16
// jobs contending for the same two devices, every arrival at t=0 so
// the planner's demand set is as wide as the mode admits. "isolated"
// is the historical sum-of-peaks admission (the planner is bypassed
// entirely); "shared" plans the set with a bounded host spill pool.
// Dry-run estimates are memoized across sub-benchmarks, so
// steady-state iterations measure admission and replay — the planner
// overhead is the shared-vs-isolated gap at equal co-tenancy.
func BenchmarkCrossJobPlanner(b *testing.B) {
	trace := CoTenantClusterTrace()
	for _, n := range []int{1, 4, 16} {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = trace[i%len(trace)]
			jobs[i].ID = fmt.Sprintf("b%02d", i)
			jobs[i].Arrival = 0
		}
		for _, mode := range []struct {
			name     string
			crossjob bool
		}{{"isolated", false}, {"shared", true}} {
			b.Run(fmt.Sprintf("%s/cotenants=%d", mode.name, n), func(b *testing.B) {
				c := Cluster{Device: TeslaK40c, Devices: CoTenantClusterDevices,
					CrossJob: mode.crossjob, HostSpillBytes: 8 << 30}
				s, err := NewScheduler(c, SchedPacking)
				if err != nil {
					b.Fatal(err)
				}
				var last *ScheduleResult
				for i := 0; i < b.N; i++ {
					r, err := s.Run(jobs)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				res, spill := 0, int64(0)
				for di := range last.Devices {
					res += last.Devices[di].PeakResidents
					if sp := last.Devices[di].SpillPeak; sp > spill {
						spill = sp
					}
				}
				b.Logf("%s n=%d: makespan %v, peak co-residents %d, spill peak %.2f MiB, mean wait %v",
					mode.name, n, last.Makespan, res, float64(spill)/(1<<20), last.MeanWait())
			})
		}
	}
}
