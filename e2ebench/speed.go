package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared. On the 2-vCPU VM it
// was written on, the same fixed work ran up to twice as slowly from
// one minute to the next, and everything in the process slowed
// together. So every time the benchmark reports is scaled to a
// reference speed: the harness times refKernel between operations (a
// "mark"), and each measured duration is multiplied by refNominal over
// the median kernel time of the marks nearest to it. On that VM, while
// the host was busy, scaling cut the spread of ten runs' medians from
// 0.2-0.4 of their median to under 0.1; the summary keeps the raw
// times and the marks.

// refNominal is refKernel's time at the reference speed: its typical
// time on that VM when the host was quiet. Scaled times read as
// wall-clock times on such a machine.
const refNominal = 18 * time.Millisecond

// refKeys, refLen and refDepth size one worker's share of refKernel: a
// map small enough for the cache, a slice of 1.2 MiB beyond it, and
// binary trees of 2^refDepth nodes.
const (
	refKeys  = 5000
	refLen   = 150_000
	refDepth = 15
)

// refWorker is one goroutine's state in refKernel, allocated once.
type refWorker struct {
	m   map[int]int
	s   []int
	sum int
}

var refWorkers = func() []*refWorker {
	ws := make([]*refWorker, runtime.GOMAXPROCS(0))
	for i := range ws {
		ws[i] = &refWorker{m: make(map[int]int, refKeys), s: make([]int, refLen)}
	}
	return ws
}()

// refKernel is the fixed work whose time tracks the machine's speed. It
// runs one worker per GOMAXPROCS at once, as the scheduler's and the
// simulator's parallel passes do, and each mixes what their inner loops
// do: hashing into a map, filling and sorting a slice, and allocating
// and walking pointer trees that the garbage collector then reclaims.
// Of the kernels tried (one goroutine or one per GOMAXPROCS, with no,
// two or six trees), this one left the least spread over the four
// workloads together.
func refKernel() {
	var wg sync.WaitGroup
	for _, w := range refWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
}

func (w *refWorker) run() {
	for i := range w.s {
		w.m[i%refKeys] += i
		w.s[i] = (i * 7919) % 100003
	}
	slices.Sort(w.s)
	for range 2 {
		w.sum += newRefTree(refDepth).total()
	}
}

type refTree struct {
	l, r *refTree
	v    int
}

func newRefTree(depth int) *refTree {
	if depth == 0 {
		return &refTree{v: 1}
	}
	return &refTree{l: newRefTree(depth - 1), r: newRefTree(depth - 1), v: depth}
}

func (t *refTree) total() int {
	if t == nil {
		return 0
	}
	return t.v + t.l.total() + t.r.total()
}

// markEvery is the least time between two marks that tick takes, and
// marksPerFactor how many of the nearest marks one factor rests on.
const (
	markEvery      = 500 * time.Millisecond
	marksPerFactor = 5
)

// speedMark is one timing of refKernel, at an offset from the start of
// the run.
type speedMark struct {
	AtNS   int64 `json:"at_ns"`
	TookNS int64 `json:"took_ns"`
}

// speedometer records marks over one run and scales durations by them.
// Offsets are from t0, the run's clock, which spans share.
type speedometer struct {
	t0    time.Time
	marks []speedMark
}

func newSpeedometer(t0 time.Time) *speedometer { return &speedometer{t0: t0} }

// now is the current offset on the run's clock.
func (s *speedometer) now() time.Duration { return time.Since(s.t0) }

// mark times refKernel once.
func (s *speedometer) mark() {
	at := s.now()
	t := time.Now()
	refKernel()
	s.marks = append(s.marks, speedMark{AtNS: int64(at), TookNS: int64(time.Since(t))})
}

// tick marks when markEvery has passed since the last mark. Call it
// between operations, never inside a timed one.
func (s *speedometer) tick() {
	if n := len(s.marks); n == 0 || s.now()-time.Duration(s.marks[n-1].AtNS) >= markEvery {
		s.mark()
	}
}

// factorAt is refNominal over the median kernel time of the
// marksPerFactor marks nearest to offset at; 1 when there are none.
func factorAt(marks []speedMark, at time.Duration) float64 {
	if len(marks) == 0 {
		return 1
	}
	// marks are in time order: widen a window around the insertion point.
	hi := sort.Search(len(marks), func(i int) bool { return marks[i].AtNS >= int64(at) })
	lo := hi
	for hi-lo < marksPerFactor && (lo > 0 || hi < len(marks)) {
		switch {
		case lo == 0:
			hi++
		case hi == len(marks):
			lo--
		case int64(at)-marks[lo-1].AtNS <= marks[hi].AtNS-int64(at):
			lo--
		default:
			hi++
		}
	}
	took := make([]int64, 0, hi-lo)
	for _, m := range marks[lo:hi] {
		took = append(took, m.TookNS)
	}
	slices.Sort(took)
	mid := len(took) / 2
	med := float64(took[mid])
	if len(took)%2 == 0 {
		med = (float64(took[mid-1]) + med) / 2
	}
	return float64(refNominal) / med
}

// opSample is one operation as measured: when it started on the run's
// clock and how long it took.
type opSample struct {
	at, took time.Duration
}

// scaled returns each sample's duration at the reference speed, scaled
// by the factor at the sample's midpoint.
func scaled(marks []speedMark, samples []opSample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = time.Duration(float64(s.took) * factorAt(marks, s.at+s.took/2))
	}
	return out
}

// raw returns the samples' durations as measured.
func raw(samples []opSample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.took
	}
	return out
}

// timeOp runs f as one timed operation on the run's clock.
func (s *speedometer) timeOp(f func() error) (opSample, error) {
	at := s.now()
	err := f()
	return opSample{at: at, took: s.now() - at}, err
}
