package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TraceJob is one line of a multi-tenant workload trace: a training
// job submitted to the shared cluster. Times are in milliseconds so
// traces stay human-editable; the scheduler converts to virtual time.
type TraceJob struct {
	ID        string
	ArrivalMS int64
	Network   string
	// Batch is the worst-case batch: the static batch size, or the
	// largest entry of BatchSchedule for a dynamic job.
	Batch int
	// BatchSchedule, when non-nil, declares a per-iteration batch
	// schedule (a dynamic-shape job); nil means every iteration runs
	// at Batch.
	BatchSchedule Schedule
	Manager       string
	Priority      int
	Iterations    int
	// GPUs is the gang size: the number of devices the job occupies
	// simultaneously as a synchronous data-parallel gang. 0 and 1 both
	// mean a single device.
	GPUs int
}

// ParseTrace reads a whitespace-separated trace: one job per line as
//
//	id arrival_ms network batch manager priority iterations
//
// Blank lines and comment lines starting with '#' are skipped.
//
// A manager of "-" is the empty name, which selects core's "custom"
// manager: the bare device with every technique off, the memory pool
// included (not the "naive" baseline). The batch
// field accepts the compact schedule syntax ("16x2,32,64x3") to
// declare a dynamic per-iteration batch schedule. An optional eighth
// field "gpus=N" declares a multi-GPU gang of N devices. Job IDs
// must be unique: the scheduler, the serving layer and every per-job
// report key on them. Every error names the offending line.
// Fault-event lines are an error here: a caller that cannot deliver
// faults (the serving layer's request log) must refuse such a trace
// loudly rather than silently drop its failures; use ParseTraceEvents
// to accept them.
func ParseTrace(r io.Reader) ([]TraceJob, error) {
	jobs, _, err := parseTrace(r, 0, false)
	return jobs, err
}

// ParseTraceEvents is ParseTrace with a gang-size ceiling and the
// fault-event syntax. A positive maxGPUs rejects any job whose gpus=N
// exceeds it, naming the line — so a trace replayed onto a known
// cluster fails at parse time, not after hours of simulation. Zero
// means no ceiling. Alongside job lines, a trace may script device
// failures and recoveries as
//
//	fault fail dev=N at=T
//	fault recover dev=N at=T
//
// where T is a time in milliseconds (a bare integer, or with an "ms"
// or "s" suffix: "at=2000", "at=2000ms" and "at=2s" are the same
// instant). Faults are returned in file order; a device that fails
// and never recovers is permanently lost.
func ParseTraceEvents(r io.Reader, maxGPUs int) ([]TraceJob, []TraceFault, error) {
	return parseTrace(r, maxGPUs, true)
}

func parseTrace(r io.Reader, maxGPUs int, allowFaults bool) ([]TraceJob, []TraceFault, error) {
	var out []TraceJob
	var faults []TraceFault
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	seen := make(map[string]int)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if f[0] == "fault" {
			if !allowFaults {
				return nil, nil, fmt.Errorf("workload: trace line %d: fault events are not supported here (replay the trace through a fault-aware caller)", line)
			}
			tf, err := parseFault(line, f)
			if err != nil {
				return nil, nil, err
			}
			faults = append(faults, tf)
			continue
		}
		if len(f) != 7 && len(f) != 8 {
			return nil, nil, fmt.Errorf("workload: trace line %d: want 7 fields (id arrival_ms network batch manager priority iterations [gpus=N]), got %d", line, len(f))
		}
		var (
			tj  TraceJob
			err error
		)
		tj.ID = f[0]
		if first, dup := seen[tj.ID]; dup {
			return nil, nil, fmt.Errorf("workload: trace line %d: duplicate job id %q (first on line %d)", line, tj.ID, first)
		}
		seen[tj.ID] = line
		if tj.ArrivalMS, err = strconv.ParseInt(f[1], 10, 64); err != nil || tj.ArrivalMS < 0 {
			return nil, nil, fmt.Errorf("workload: trace line %d: bad arrival %q", line, f[1])
		}
		tj.Network = f[2]
		sched, err := ParseSchedule(f[3])
		if err != nil {
			return nil, nil, fmt.Errorf("workload: trace line %d: bad batch %q", line, f[3])
		}
		tj.Batch = sched.Max()
		if len(sched) > 1 {
			tj.BatchSchedule = sched
		}
		if tj.Manager = f[4]; tj.Manager == "-" {
			tj.Manager = ""
		}
		if tj.Priority, err = strconv.Atoi(f[5]); err != nil {
			return nil, nil, fmt.Errorf("workload: trace line %d: bad priority %q", line, f[5])
		}
		if tj.Iterations, err = strconv.Atoi(f[6]); err != nil || tj.Iterations <= 0 {
			return nil, nil, fmt.Errorf("workload: trace line %d: bad iterations %q", line, f[6])
		}
		if len(f) == 8 {
			v, ok := strings.CutPrefix(f[7], "gpus=")
			if !ok {
				return nil, nil, fmt.Errorf("workload: trace line %d: want gpus=N, got %q", line, f[7])
			}
			if tj.GPUs, err = strconv.Atoi(v); err != nil || tj.GPUs < 1 {
				return nil, nil, fmt.Errorf("workload: trace line %d: bad gang size %q", line, f[7])
			}
			if maxGPUs > 0 && tj.GPUs > maxGPUs {
				return nil, nil, fmt.Errorf("workload: trace line %d: gang needs %d devices, cluster has %d", line, tj.GPUs, maxGPUs)
			}
		}
		out = append(out, tj)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("workload: reading trace after line %d: %w", line, err)
	}
	return out, faults, nil
}

// TraceHeader is the comment line FormatTrace emits before the jobs.
const TraceHeader = "# id arrival_ms network batch manager priority iterations\n"

// BatchLabel renders a job's batch field: the compact schedule syntax
// for a dynamic job, the plain batch otherwise. It is the single
// source of the trace format's batch column; the CLI tables reuse it
// so they cannot diverge from the trace files.
func BatchLabel(batch int, sched Schedule) string {
	if len(sched) > 1 {
		return sched.String()
	}
	return fmt.Sprint(batch)
}

// FormatJob renders one job as a ParseTrace line (with trailing
// newline). Incremental writers (the serving layer's request log)
// append FormatJob lines after a TraceHeader and stay byte-identical
// with FormatTrace over the same jobs. The gpus=N field appears only
// for gangs, so single-device logs keep their historical bytes.
func FormatJob(j TraceJob) string {
	m := j.Manager
	if m == "" {
		m = "-"
	}
	gang := ""
	if j.GPUs > 1 {
		gang = fmt.Sprintf(" gpus=%d", j.GPUs)
	}
	return fmt.Sprintf("%s %d %s %s %s %d %d%s\n",
		j.ID, j.ArrivalMS, j.Network, BatchLabel(j.Batch, j.BatchSchedule), m, j.Priority, j.Iterations, gang)
}

// FormatTrace renders jobs in the ParseTrace format, with a header
// comment.
func FormatTrace(jobs []TraceJob) string {
	var b strings.Builder
	b.WriteString(TraceHeader)
	for _, j := range jobs {
		b.WriteString(FormatJob(j))
	}
	return b.String()
}

// DefaultTrace is the bundled multi-tenant trace the scheduler
// evaluation replays: two big jobs fill most of both devices, a
// high-priority job too large for the remaining gaps blocks a FIFO
// queue head-of-line, a stream of small jobs fits the gaps a
// memory-aware policy can backfill, and one job exceeds a whole
// device so admission control must reject it. Footprints are the
// dry-run pool peaks on the Tesla K40c (11.5 GiB usable): ResNet50
// b32 naive ≈58%, VGG16 b32 caffe ≈55%, AlexNet b512 naive ≈62%, the
// smalls 13–32%.
func DefaultTrace() []TraceJob {
	return []TraceJob{
		{ID: "big-resnet", ArrivalMS: 0, Network: "ResNet50", Batch: 32, Manager: "naive", Priority: 2, Iterations: 8},
		{ID: "big-vgg", ArrivalMS: 0, Network: "VGG16", Batch: 32, Manager: "caffe", Priority: 2, Iterations: 3},
		{ID: "urgent-alex", ArrivalMS: 100, Network: "AlexNet", Batch: 512, Manager: "naive", Priority: 9, Iterations: 4},
		{ID: "small-sn", ArrivalMS: 200, Network: "AlexNet", Batch: 256, Manager: "superneurons", Priority: 1, Iterations: 4},
		{ID: "small-vdnn", ArrivalMS: 250, Network: "ResNet50", Batch: 32, Manager: "vdnn", Priority: 2, Iterations: 3},
		{ID: "small-alex", ArrivalMS: 300, Network: "AlexNet", Batch: 128, Manager: "naive", Priority: 1, Iterations: 5},
		{ID: "mid-sn", ArrivalMS: 350, Network: "AlexNet", Batch: 512, Manager: "superneurons", Priority: 3, Iterations: 2},
		{ID: "too-big", ArrivalMS: 400, Network: "AlexNet", Batch: 1024, Manager: "naive", Priority: 4, Iterations: 1},
		{ID: "late-alex", ArrivalMS: 5000, Network: "AlexNet", Batch: 64, Manager: "naive", Priority: 5, Iterations: 6},
	}
}

// DefaultDynamicTrace is the bundled dynamic-workload trace: jobs
// whose per-iteration batch schedules vary their footprint across the
// run. Admission control must reserve each job's worst-case shape
// (max over the schedule's distinct batches), so a ramped or spiking
// job can never OOM its device mid-run, while static small jobs fill
// the remaining gaps.
func DefaultDynamicTrace() []TraceJob {
	ramp := Ramp(128, 512, 4)
	spike := Schedule{128, 512, 128}
	buckets := Buckets(2, 16, 32)
	return []TraceJob{
		{ID: "ramp-alex", ArrivalMS: 0, Network: "AlexNet", Batch: ramp.Max(), BatchSchedule: ramp,
			Manager: "naive", Priority: 2, Iterations: len(ramp)},
		{ID: "spike-alex", ArrivalMS: 50, Network: "AlexNet", Batch: spike.Max(), BatchSchedule: spike,
			Manager: "superneurons", Priority: 3, Iterations: len(spike)},
		{ID: "bucket-resnet", ArrivalMS: 100, Network: "ResNet50", Batch: buckets.Max(), BatchSchedule: buckets,
			Manager: "vdnn", Priority: 2, Iterations: len(buckets)},
		{ID: "steady-alex", ArrivalMS: 150, Network: "AlexNet", Batch: 128, Manager: "naive", Priority: 1, Iterations: 5},
		{ID: "steady-sn", ArrivalMS: 200, Network: "AlexNet", Batch: 256, Manager: "superneurons", Priority: 1, Iterations: 3},
	}
}
