package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/nnet"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/utp"
	"repro/internal/workload"
)

// Fig2 reproduces the memory/speed trade-off of convolution
// workspaces: per network, the training-memory requirement with and
// without workspaces, and the measured speedup of enabling them. The
// memory columns are analytic (Σ l_i^f + Σ l_i^b + persistent state,
// plus the largest single max-speed workspace when enabled, since one
// layer computes at a time); speedups are measured on a memory-rich
// configuration to isolate the workspace effect, as the paper's Fig. 2
// did with networks exceeding 12 GB.
func Fig2() *metrics.Table {
	t := metrics.NewTable(
		"Fig 2: memory (GiB) and speedup with convolution workspaces (TITAN Xp)",
		"network", "batch", "mem", "mem+ws", "speedup")
	nets := []string{"AlexNet", "VGG16", "VGG19", "InceptionV4", "ResNet50", "ResNet101", "ResNet152"}
	type row struct {
		mem, memWS, speedup float64
	}
	rows := par.Map(nets, 0, func(name string) row {
		b := fig2Batch(name)
		p := program.Build(nnet.ByName(name)(b))
		mem := float64(p.BaselineBytes() + p.PersistentBytes)
		var maxWS int64
		for _, nd := range p.Net.Nodes {
			if nd.L.Type == layers.Conv {
				if ws := nd.L.MaxSpeedAlgo().Workspace; ws > maxWS {
					maxWS = ws
				}
			}
		}
		cfg := core.SuperNeurons(hw.TitanXP)
		cfg.PoolBytes = 96 * hw.GiB // isolate the workspace effect from capacity
		fast := must(core.Measure(nnet.ByName(name)(b), cfg))
		cfg.DynamicWorkspace = false
		slow := must(core.Measure(nnet.ByName(name)(b), cfg))
		return row{mem / gib, (mem + float64(maxWS)) / gib, fast.Throughput / slow.Throughput}
	})
	for i, name := range nets {
		t.Add(name, fmt.Sprint(fig2Batch(name)),
			fmt.Sprintf("%.2f", rows[i].mem), fmt.Sprintf("%.2f", rows[i].memWS),
			fmt.Sprintf("%.2fx", rows[i].speedup))
	}
	return t
}

// Fig8 reproduces the execution-time and memory breakdowns by layer
// type across the seven networks (both passes, analytic over the
// lowered program).
func Fig8() (timeTable, memTable *metrics.Table) {
	nets := []string{"AlexNet", "InceptionV4", "ResNet101", "ResNet152", "ResNet50", "VGG16", "VGG19"}
	types := []layers.Type{layers.Conv, layers.FC, layers.Dropout, layers.Softmax,
		layers.Pool, layers.Act, layers.BN, layers.LRN}
	header := []string{"network"}
	for _, ty := range types {
		header = append(header, ty.String())
	}
	timeTable = metrics.NewTable("Fig 8a: % of compute time by layer type", header...)
	memTable = metrics.NewTable("Fig 8b: % of memory usage by layer type", header...)

	for _, name := range nets {
		b := table2Batch(name)
		p := program.Build(nnet.ByName(name)(b))
		timeBy := make(map[layers.Type]float64)
		memBy := make(map[layers.Type]float64)
		var timeTotal, memTotal float64
		for _, nd := range p.Net.Nodes {
			dt := float64(nd.L.FwdTime(hw.TitanXP, 1) + nd.L.BwdTime(hw.TitanXP, 1))
			timeBy[nd.L.Type] += dt
			timeTotal += dt
			m := float64(p.Out[nd.ID].Bytes())
			if dx := p.DX[nd.ID]; dx != nil {
				m += float64(dx.Bytes())
			}
			memBy[nd.L.Type] += m
			memTotal += m
		}
		trow := []string{name}
		mrow := []string{name}
		for _, ty := range types {
			trow = append(trow, fmt.Sprintf("%.1f", 100*timeBy[ty]/timeTotal))
			mrow = append(mrow, fmt.Sprintf("%.1f", 100*memBy[ty]/memTotal))
		}
		timeTable.Add(trow...)
		memTable.Add(mrow...)
	}
	return timeTable, memTable
}

// Fig10Result bundles one memory-technique case study run.
type Fig10Result struct {
	Name string
	Res  *core.Result
}

// Fig10Runs executes the four stacked configurations of the AlexNet
// b=200 case study: baseline, liveness, +offload/prefetch,
// +cost-aware recomputation.
func Fig10Runs() []Fig10Result {
	d := hw.TeslaK40c
	base := core.Baseline(d)
	live := base
	live.Liveness = true
	off := live
	off.Offload = utp.OffloadConv
	off.Prefetch = true
	rec := off
	rec.Recompute = recompute.CostAware

	out := []Fig10Result{{"baseline", nil}, {"liveness", nil}, {"+offload", nil}, {"+recompute", nil}}
	for i, cfg := range []core.Config{base, live, off, rec} {
		r := must(core.Run(nnet.AlexNet(200), cfg))
		out[i].Res = r
	}
	return out
}

// Fig10 renders the step-wise memory curves and the peak comparison of
// the case study.
func Fig10(runs []Fig10Result) string {
	var b strings.Builder
	series := make([]metrics.Series, 0, len(runs))
	for _, r := range runs {
		s := metrics.Series{Name: r.Name}
		for _, st := range r.Res.Steps {
			s.X = append(s.X, float64(st.Index))
			s.Y = append(s.Y, float64(st.ResidentBytes)/(1<<20))
		}
		series = append(series, s)
	}
	b.WriteString(metrics.Chart("Fig 10: AlexNet b=200 step-wise memory (MiB)", series, 94, 24))

	t := metrics.NewTable("peaks", "configuration", "peak MiB", "at step", "paper MB", "paper step")
	paper := []struct {
		v    float64
		step string
	}{
		{paperFig10.Baseline, "-"},
		{paperFig10.Liveness, paperFig10.LivenessStep},
		{paperFig10.Offload, paperFig10.OffloadStep},
		{paperFig10.Recompute, paperFig10.RecomputeStep},
	}
	for i, r := range runs {
		t.Add(r.Name, metrics.MiB(r.Res.PeakResident),
			r.Res.Steps[r.Res.PeakStep].Label,
			fmt.Sprintf("%.3f", paper[i].v), paper[i].step)
	}
	b.WriteString("\n")
	b.WriteString(t.String())

	// Live tensor counts, the orange curves of the paper's figure.
	counts := make([]metrics.Series, 0, 2)
	for _, i := range []int{0, 1} {
		s := metrics.Series{Name: runs[i].Name}
		for _, st := range runs[i].Res.Steps {
			s.X = append(s.X, float64(st.Index))
			s.Y = append(s.Y, float64(st.LiveTensors))
		}
		counts = append(counts, s)
	}
	b.WriteString("\n")
	b.WriteString(metrics.Chart("live tensor counts (baseline vs liveness)", counts, 94, 12))
	return b.String()
}

// Fig11 reproduces the normalized-speed comparison with and without
// the Tensor Cache. Like the paper's component study it runs on the
// K40c, where computation is slow enough for eager transfers to
// partially hide — the cache's win is avoiding them entirely.
func Fig11() *metrics.Table {
	t := metrics.NewTable(
		"Fig 11: normalized speed without/with Tensor Cache (K40c)",
		"network", "batch", "img/s no cache", "img/s cache", "normalized (no cache)")
	type row struct{ eager, cached float64 }
	rows := par.Map(paperNets, 0, func(name string) row {
		b := fig11Batch(name)
		cfg := core.SuperNeurons(hw.TeslaK40c)
		cached := must(core.Measure(nnet.ByName(name)(b), cfg))
		cfg.TensorCache = false
		eager := must(core.Measure(nnet.ByName(name)(b), cfg))
		return row{eager.Throughput, cached.Throughput}
	})
	for i, name := range paperNets {
		t.Add(name, fmt.Sprint(fig11Batch(name)),
			fmt.Sprintf("%.1f", rows[i].eager), fmt.Sprintf("%.1f", rows[i].cached),
			fmt.Sprintf("%.2f", rows[i].eager/rows[i].cached))
	}
	return t
}

// Fig12 reproduces the dynamic-workspace study: assigned vs max-speed
// workspace per CONV step under different batch sizes and pool sizes,
// with the resulting throughput.
func Fig12() string {
	var b strings.Builder
	cases := []struct {
		batch int
		pool  int64
	}{
		{100, 3 * hw.GiB},
		{300, 3 * hw.GiB},
		{300, 5 * hw.GiB},
	}
	for _, c := range cases {
		cfg := core.SuperNeurons(hw.TeslaK40c)
		cfg.PoolBytes = c.pool
		r := must(core.Run(nnet.AlexNet(c.batch), cfg))
		var labels []string
		var assigned, maxSpeed []float64
		for _, st := range r.Steps {
			if st.MaxSpeedWorkspace == 0 && st.WorkspaceBytes == 0 {
				continue
			}
			labels = append(labels, st.Label)
			assigned = append(assigned, float64(st.WorkspaceBytes)/(1<<20))
			maxSpeed = append(maxSpeed, float64(st.MaxSpeedWorkspace)/(1<<20))
		}
		fmt.Fprintf(&b, "batch=%d pool=%s GiB  ->  %.0f img/s\n", c.batch, metrics.GiB(c.pool), r.Throughput)
		rows := metrics.NewTable("", "conv step", "assigned WS MiB", "max-speed WS MiB")
		for i := range labels {
			rows.Add(labels[i], fmt.Sprintf("%.1f", assigned[i]), fmt.Sprintf("%.1f", maxSpeed[i]))
		}
		b.WriteString(rows.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "paper: %.0f img/s under a 3 GB pool vs %.0f img/s under 5 GB (Fig 12c/d)\n",
		paperFig12.Pool3GB, paperFig12.Pool5GB)
	return b.String()
}

// Fig13 reproduces the memory-cost comparison: Σ l_i^f + Σ l_i^b (plus
// persistent state) at every framework's largest trainable batch from
// Table 5.
func Fig13(table5 map[string]map[string]int) *metrics.Table {
	t := metrics.NewTable(
		"Fig 13: memory cost in GiB at each framework's peak batch",
		"network", "Caffe", "MXNet", "Torch", "TensorFlow", "SuperNeurons", "SN/Caffe")
	fws := []string{"Caffe", "MXNet", "Torch", "TensorFlow", "SuperNeurons"}
	for _, n := range paperNets {
		row := []string{n}
		var caffe, sn float64
		for _, f := range fws {
			p := program.Build(nnet.ByName(n)(table5[n][f]))
			g := float64(p.BaselineBytes()+p.PersistentBytes) / gib
			if f == "Caffe" {
				caffe = g
			}
			if f == "SuperNeurons" {
				sn = g
			}
			row = append(row, fmt.Sprintf("%.1f", g))
		}
		row = append(row, fmt.Sprintf("%.1fx", sn/caffe))
		t.Add(row...)
	}
	return t
}

// Fig14 reproduces the end-to-end throughput sweeps: img/s vs batch
// for every framework on the TITAN Xp, one chart and one table per
// network. Zero entries mark out-of-memory.
func Fig14() string {
	var b strings.Builder
	nets := []string{"AlexNet", "ResNet50", "VGG16", "ResNet101", "InceptionV4", "ResNet152"}
	for _, name := range nets {
		batches := workload.Fig14Batches[name]
		rows := must(policy.BatchSweep(policy.All, nnet.ByName(name), hw.TitanXP, batches))
		var series []metrics.Series
		t := metrics.NewTable(fmt.Sprintf("Fig 14 (%s): img/s vs batch", name),
			append([]string{"framework"}, intsToStrings(batches)...)...)
		for i, f := range policy.All {
			s := metrics.Series{Name: f.Name}
			row := []string{f.Name}
			for j, batch := range batches {
				if rows[i][j] > 0 {
					s.X = append(s.X, float64(batch))
					s.Y = append(s.Y, rows[i][j])
					row = append(row, fmt.Sprintf("%.0f", rows[i][j]))
				} else {
					row = append(row, "OOM")
				}
			}
			series = append(series, s)
			t.Add(row...)
		}
		b.WriteString(t.String())
		b.WriteString(metrics.Chart("", series, 72, 14))
		b.WriteString("\n")
	}
	return b.String()
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}
