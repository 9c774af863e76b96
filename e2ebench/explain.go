package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/metrics"
)

// explanation splits one operation's end-to-end mean into layer rows:
// each layer's self time per operation (its spans' durations minus the
// parts their child spans cover, times the calls per operation), their
// sum, and the remainder no layer span covers.
type explanation struct {
	Workload string
	Op       string
	// TracedOps is how many traced operations the rows average over.
	TracedOps int
	// EndToEndMS is the untraced run's mean per operation.
	EndToEndMS  float64
	Rows        []layerRow
	SumMS       float64
	RemainderMS float64
}

type layerRow struct {
	Name       string
	CallsPerOp float64
	MSPerOp    float64
}

// explain matches a summary's operations to the traced root spans of
// the same workload and name. Both sides are at the reference speed:
// the summary's timings already, each span's self time scaled by the
// traced run's marks.
func explain(sum *report, spans []span, marks []speedMark) []explanation {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []explanation
	for _, op := range sortedKeys(sum.Ops) {
		var roots []span
		for _, s := range spans {
			if s.Parent == 0 && s.Workload == sum.Workload && s.Name == op {
				roots = append(roots, s)
			}
		}
		if len(roots) == 0 {
			continue
		}
		self := map[string]time.Duration{}
		calls := map[string]int{}
		var walk func(s span)
		walk = func(s span) {
			for _, c := range children[s.ID] {
				self[c.Name] += time.Duration(float64(selfTime(c, children[c.ID])) * factorAt(marks, c.mid()))
				calls[c.Name]++
				walk(c)
			}
		}
		for _, r := range roots {
			walk(r)
		}
		ex := explanation{Workload: sum.Workload, Op: op, TracedOps: len(roots), EndToEndMS: sum.Ops[op].MeanMS}
		n := float64(len(roots))
		for _, name := range sortedKeys(self) {
			row := layerRow{Name: name, CallsPerOp: float64(calls[name]) / n,
				MSPerOp: float64(self[name]) / n / float64(time.Millisecond)}
			ex.Rows = append(ex.Rows, row)
			ex.SumMS += row.MSPerOp
		}
		sort.SliceStable(ex.Rows, func(i, j int) bool { return ex.Rows[i].MSPerOp > ex.Rows[j].MSPerOp })
		ex.RemainderMS = ex.EndToEndMS - ex.SumMS
		out = append(out, ex)
	}
	return out
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), int64(0)
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return s.dur() - time.Duration(covered)
}

func (ex explanation) print(w io.Writer) {
	share := func(ms float64) string {
		if ex.EndToEndMS == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*ms/ex.EndToEndMS)
	}
	t := metrics.NewTable(fmt.Sprintf("%s %s: end-to-end mean %s ms, layers from %d traced ops",
		ex.Workload, ex.Op, fmtValue(ex.EndToEndMS), ex.TracedOps),
		"layer (self time)", "calls/op", "ms/op", "share")
	for _, r := range ex.Rows {
		t.Add(r.Name, fmtValue(r.CallsPerOp), fmtValue(r.MSPerOp), share(r.MSPerOp))
	}
	t.Add("sum of layers", "", fmtValue(ex.SumMS), share(ex.SumMS))
	t.Add("remainder (unaccounted)", "", fmtValue(ex.RemainderMS), share(ex.RemainderMS))
	fmt.Fprintln(w, t.String())
}

// explainMain is the explain subcommand.
func explainMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	spansPath := fs.String("spans", "", "span file of a traced run (OUT/spans.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansPath == "" || fs.NArg() == 0 {
		return errors.New("usage: explain -spans SPANS.json SUMMARY.json...")
	}
	traced, err := readReport(*spansPath)
	if err != nil {
		return err
	}
	if !traced.Traced {
		return fmt.Errorf("%s is not a traced run's span file", *spansPath)
	}
	for _, path := range fs.Args() {
		sum, err := readReport(path)
		if err != nil {
			return err
		}
		exs := explain(sum, traced.Spans, traced.Speed)
		if len(exs) == 0 {
			return fmt.Errorf("%s: no traced operations match workload %s", path, sum.Workload)
		}
		for _, ex := range exs {
			ex.print(w)
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
