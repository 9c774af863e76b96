package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Schedule is a per-iteration batch-size schedule: entry i is the
// batch size of training iteration i. Dynamic workloads — bucketed
// sequence lengths, batch-size ramps, mixed request streams — declare
// one instead of a single static batch, and the runtime re-plans at
// each iteration boundary (the scenario class TENSILE targets, where
// vDNN-style one-shot offload schedules break down).
type Schedule []int

// Validate checks that every entry is a positive batch size.
func (s Schedule) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("workload: empty batch schedule")
	}
	for i, b := range s {
		if b <= 0 {
			return fmt.Errorf("workload: schedule entry %d: batch must be positive, got %d", i, b)
		}
	}
	return nil
}

// Max returns the largest batch in the schedule — the worst-case shape
// admission control must provision for.
func (s Schedule) Max() int {
	m := 0
	for _, b := range s {
		if b > m {
			m = b
		}
	}
	return m
}

// Distinct returns the sorted distinct batch sizes — each is one
// memoized dry run for a scheduler's worst-case-per-shape estimate.
func (s Schedule) Distinct() []int {
	seen := make(map[int]bool, len(s))
	var out []int
	for _, b := range s {
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}

// At returns the batch of iteration i, cycling when the run is longer
// than the declared schedule.
func (s Schedule) At(i int) int { return s[i%len(s)] }

// Ramp returns a linearly interpolated batch ramp from 'from' to 'to'
// over n iterations (inclusive endpoints) — the growing-batch training
// regime.
func Ramp(from, to, n int) Schedule {
	if n <= 1 {
		return Schedule{to}
	}
	out := make(Schedule, n)
	for i := range out {
		out[i] = from + (to-from)*i/(n-1)
	}
	return out
}

// Buckets repeats each batch size reps times in order — the bucketed
// sequence-length regime, where inputs are grouped into a few shape
// buckets and iterations sweep them.
func Buckets(reps int, batches ...int) Schedule {
	out := make(Schedule, 0, reps*len(batches))
	for _, b := range batches {
		for r := 0; r < reps; r++ {
			out = append(out, b)
		}
	}
	return out
}

// MaxScheduleLen bounds a parsed schedule's expanded length: a trace
// line like "1x2000000000" must fail at parse time, not allocate a
// multi-gigabyte slice.
const MaxScheduleLen = 1 << 20

// ParseSchedule reads the compact trace syntax: comma-separated batch
// sizes, each optionally with an xN repeat — "16x2,32,64x3" is
// [16 16 32 64 64 64]. A plain integer parses as a one-entry schedule.
// Schedules longer than MaxScheduleLen entries are rejected.
func ParseSchedule(s string) (Schedule, error) {
	var out Schedule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		batchStr, reps := part, 1
		if i := strings.IndexByte(part, 'x'); i >= 0 {
			batchStr = part[:i]
			r, err := strconv.Atoi(part[i+1:])
			if err != nil || r <= 0 {
				return nil, fmt.Errorf("workload: bad repeat in schedule entry %q", part)
			}
			reps = r
		}
		if reps > MaxScheduleLen-len(out) {
			return nil, fmt.Errorf("workload: schedule longer than %d entries at %q", MaxScheduleLen, part)
		}
		b, err := strconv.Atoi(batchStr)
		if err != nil || b <= 0 {
			return nil, fmt.Errorf("workload: bad batch in schedule entry %q", part)
		}
		for r := 0; r < reps; r++ {
			out = append(out, b)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the schedule in the ParseSchedule syntax, run-length
// encoded.
func (s Schedule) String() string {
	var b strings.Builder
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j-i > 1 {
			fmt.Fprintf(&b, "%dx%d", s[i], j-i)
		} else {
			fmt.Fprintf(&b, "%d", s[i])
		}
		i = j
	}
	return b.String()
}

// DynamicSchedules are the bundled dynamic-batch traces of the
// adaptive-planning evaluation, keyed by name.
var DynamicSchedules = map[string]Schedule{
	// ramp grows the batch across the run, the regime where a plan
	// frozen at iteration 0's small shape runs out of memory mid-run.
	"ramp": Ramp(32, 256, 8),
	// buckets sweeps three sequence-length-like shape buckets.
	"buckets": Buckets(2, 64, 192, 96),
	// spike holds a comfortable steady state with one oversized burst,
	// the worst case for a static plan sized to the common shape.
	"spike": {64, 64, 256, 256, 64, 64},
	// ramp50 is the ramp scaled to ResNet-50 batch sizes (the
	// adaptive-vs-frozen-plan ablation runs it on a shrunken pool).
	"ramp50": {16, 32, 48, 48},
}
