package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// run can report it as a tail: fewer, and one outlier moves it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// supportedTail returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it, and false when even the median
// does not.
func supportedTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if int(math.Floor(float64(n)*(1-p)+1e-9)) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile interpolates the p-quantile (0 <= p <= 1) of ascending
// samples between the closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// timing summarizes one set of latency samples, in milliseconds.
type timing struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Tail names the highest percentile with at least minBeyond
	// samples above it ("p99"), or "none" when no percentile has.
	Tail   string  `json:"tail"`
	TailMS float64 `json:"tail_ms"`
}

func summarize(samples []time.Duration) timing {
	ms := make([]float64, len(samples))
	sum := 0.0
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
		sum += ms[i]
	}
	sort.Float64s(ms)
	t := timing{N: len(ms), Tail: "none"}
	if len(ms) == 0 {
		return t
	}
	t.MeanMS = sum / float64(len(ms))
	t.P50MS = percentile(ms, 0.5)
	t.P90MS = percentile(ms, 0.9)
	t.P99MS = percentile(ms, 0.99)
	t.MaxMS = ms[len(ms)-1]
	if p, ok := supportedTail(len(ms)); ok {
		t.Tail = fmt.Sprintf("p%g", 100*p)
		t.TailMS = percentile(ms, p)
	}
	return t
}

// secondsMetric records the median of a few set-up or recovery samples,
// at the reference speed, under name; the raw median is an extra.
func secondsMetric(r *report, name string, samples []opSample, marks []speedMark, gated bool) {
	st := stat{Value: summarize(scaled(marks, samples)).P50MS / 1000, Unit: "s", N: len(samples)}
	if gated {
		r.Metrics[name] = st
	} else {
		r.Extra[name] = st
	}
	r.Extra["raw_"+name] = stat{Value: summarize(raw(samples)).P50MS / 1000, Unit: "s", N: len(samples)}
}

// latencyMetrics records one operation kind's latency summary at the
// reference speed and, as extras, its raw median and p90 and the mean
// speed factor. With gated set, its median and p90 are the end-to-end
// metrics every workload reports.
func latencyMetrics(r *report, op string, samples []opSample, marks []speedMark, gated bool) {
	tm := summarize(scaled(marks, samples))
	r.Ops[op] = tm
	rawTm := summarize(raw(samples))
	r.Extra["raw_"+op+"_p50_ms"] = stat{Value: rawTm.P50MS, Unit: "ms", N: rawTm.N}
	r.Extra["raw_"+op+"_p90_ms"] = stat{Value: rawTm.P90MS, Unit: "ms", N: rawTm.N}
	if gated {
		r.Metrics["op_p50_ms"] = stat{Value: tm.P50MS, Unit: "ms", N: tm.N}
		r.Metrics["op_p90_ms"] = stat{Value: tm.P90MS, Unit: "ms", N: tm.N}
		if rawTm.MeanMS > 0 {
			r.Extra["speed_factor"] = stat{Value: tm.MeanMS / rawTm.MeanMS, Unit: "ratio", N: tm.N}
		}
	}
}
