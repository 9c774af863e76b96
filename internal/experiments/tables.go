package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nnet"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/utp"
	"repro/internal/workload"
)

const gib = float64(1 << 30)

// must returns v, panicking on err: the table and figure renderers run
// fixed configurations and have no error path.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// paperNets are the six networks of Tables 2 and 5 and Figs 11-13, in
// the paper's row order.
var paperNets = []string{"AlexNet", "VGG16", "InceptionV4", "ResNet50", "ResNet101", "ResNet152"}

// recomputeEvalConfig is the §4.1.1 configuration the recomputation
// study runs under: liveness + UTP offloading + the given strategy,
// eager (no tensor cache) so the memory effects are directly visible.
func recomputeEvalConfig(d hw.DeviceSpec, s recompute.Strategy) core.Config {
	return core.Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, Liveness: true,
		Offload: utp.OffloadConvAndKept, Prefetch: true,
		Recompute: s,
	}
}

// Table1 reproduces the recomputation-strategy comparison: extra
// forward passes and peak memory for the speed-centric,
// memory-centric and cost-aware strategies. The "analytic" columns use
// the paper's closed-form segment accounting (Σs, Σs(s+1)/2) and match
// its Table 1 exactly; the "measured" columns come from executing the
// replays, where cuDNN kernel signatures excuse some reconstructions
// (run `snpaper tables -only table1`).
func Table1() *metrics.Table {
	t := metrics.NewTable(
		"Table 1: recomputation strategies (extra forwards / peak MB)",
		"network", "strategy", "analytic", "paper", "measured", "peak MiB", "paper MB")
	cases := []struct {
		name  string
		build func() *nnet.Net
	}{
		{"AlexNet", func() *nnet.Net { return nnet.AlexNet(200) }},
		{"ResNet50", func() *nnet.Net { return nnet.ResNet(50, 16) }},
		{"ResNet101", func() *nnet.Net { return nnet.ResNet(101, 16) }},
	}
	for _, c := range cases {
		ref := paperTable1[c.name]
		pl := recompute.BuildPlan(program.Build(c.build()), recompute.CostAware)
		aSpeed, aMem := pl.AnalyticExtras()
		aCA := pl.AnalyticCostAware()
		for _, s := range []struct {
			strat                recompute.Strategy
			analytic, paperExtra int
			paperPeak            float64
		}{
			{recompute.SpeedCentric, aSpeed, ref.SpeedExtra, ref.SpeedPeak},
			{recompute.MemoryCentric, aMem, ref.MemExtra, ref.MemPeak},
			{recompute.CostAware, aCA, ref.CAExtra, ref.CAPeak},
		} {
			r := must(core.Run(c.build(), recomputeEvalConfig(hw.TeslaK40c, s.strat)))
			t.Add(c.name, s.strat.String(),
				fmt.Sprint(s.analytic), fmt.Sprint(s.paperExtra),
				fmt.Sprint(r.ExtraForwards),
				metrics.MiB(r.PeakResident), fmt.Sprintf("%.3f", s.paperPeak))
		}
	}
	return t
}

// Table2 reproduces the GPU-memory-pool speedup over
// cudaMalloc/cudaFree on the K40c.
func Table2() *metrics.Table {
	t := metrics.NewTable(
		"Table 2: img/s with cudaMalloc/cudaFree vs GPU memory pool (K40c)",
		"network", "cuda", "pool", "speedup", "paper cuda", "paper pool", "paper x")
	type row struct{ cuda, pool float64 }
	rows := par.Map(paperNets, 0, func(name string) row {
		cfg := core.SuperNeurons(hw.TeslaK40c)
		cfg.TensorCache = false // eager UTP: the §4.1.2 pool study setting
		b := table2Batch(name)
		rPool := must(core.Run(nnet.ByName(name)(b), cfg))
		cfg.UseMemPool = false
		rCUDA := must(core.Run(nnet.ByName(name)(b), cfg))
		return row{rCUDA.Throughput, rPool.Throughput}
	})
	for i, name := range paperNets {
		ref := paperTable2[name]
		t.Add(name,
			fmt.Sprintf("%.1f", rows[i].cuda), fmt.Sprintf("%.1f", rows[i].pool),
			fmt.Sprintf("%.2fx", rows[i].pool/rows[i].cuda),
			fmt.Sprintf("%.1f", ref.CUDA), fmt.Sprintf("%.1f", ref.Pool),
			fmt.Sprintf("%.2fx", ref.Pool/ref.CUDA))
	}
	return t
}

// Table3 reproduces the Tensor Cache communication study: PCIe traffic
// per iteration for AlexNet as the batch grows, with and without the
// cache.
func Table3() *metrics.Table {
	t := metrics.NewTable(
		"Table 3: communications per iteration in GB (AlexNet, K40c)",
		"batch", "no cache", "tensor cache", "paper no cache", "paper cache")
	type row struct{ eager, cached float64 }
	rows := par.Map(paperTable3.Batches, 0, func(b int) row {
		cfg := core.SuperNeurons(hw.TeslaK40c)
		cfg.TensorCache = false
		rEager := must(core.Run(nnet.AlexNet(b), cfg))
		cfg = core.SuperNeurons(hw.TeslaK40c)
		rCache := must(core.Run(nnet.AlexNet(b), cfg))
		return row{float64(rEager.TotalTraffic()) / gib, float64(rCache.TotalTraffic()) / gib}
	})
	for i, b := range paperTable3.Batches {
		t.Add(fmt.Sprint(b),
			fmt.Sprintf("%.2f", rows[i].eager), fmt.Sprintf("%.2f", rows[i].cached),
			fmt.Sprintf("%.2f", paperTable3.NoCache[i]), fmt.Sprintf("%.2f", paperTable3.WithCache[i]))
	}
	return t
}

// Depth is one framework's going-deeper result: the largest stage-3
// repeat count it trains and the ResNet depth that gives, both 0 when
// even n3=1 does not fit.
type Depth struct{ N3, Depth int }

// MaxDepths runs the going-deeper capacity search (Table 4's metric)
// on the K40c for every framework, in policy.All order and in
// parallel, at the batch size with n3 bounded by maxN3.
func MaxDepths(batch, maxN3 int) ([]Depth, error) {
	return par.MapErr(policy.All, 0, func(f policy.Framework) (Depth, error) {
		n3, depth, err := policy.MaxDepth(f, hw.TeslaK40c, batch, maxN3)
		if err != nil {
			return Depth{}, fmt.Errorf("%s: %w", f.Name, err)
		}
		return Depth{n3, depth}, nil
	})
}

// MaxBatches runs the going-wider capacity search (Table 5's metric)
// on the K40c for every framework on every network, each network's
// search bounded by limit[network]. All cells run in parallel; the
// result is indexed [network][framework] in nets and policy.All order.
func MaxBatches(nets []string, limit map[string]int) ([][]int, error) {
	type cell struct {
		f     policy.Framework
		net   string
		build nnet.BuilderFunc
	}
	var work []cell
	for _, n := range nets {
		builder := nnet.ByName(n)
		if builder == nil {
			return nil, fmt.Errorf("unknown network %q", n)
		}
		// The network is built once; each framework's search re-shapes
		// a clone of its own.
		proto := builder(1)
		build := func(batch int) *nnet.Net {
			net := proto.Clone()
			net.Rebatch(batch)
			return net
		}
		for _, f := range policy.All {
			work = append(work, cell{f, n, build})
		}
	}
	batches, err := par.MapErr(work, 0, func(c cell) (int, error) {
		b, err := policy.MaxBatch(c.f, c.build, hw.TeslaK40c, limit[c.net])
		if err != nil {
			return 0, fmt.Errorf("%s/%s: %w", c.f.Name, c.net, err)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(nets))
	for i := range out {
		out[i] = batches[i*len(policy.All) : (i+1)*len(policy.All)]
	}
	return out, nil
}

// Table4 reproduces the going-deeper study: the deepest Table-4 ResNet
// (n1=6, n2=32, n4=6, varying n3) each framework trains at batch 16 on
// 12 GB.
func Table4() *metrics.Table {
	t := metrics.NewTable(
		"Table 4: deepest trainable ResNet (batch 16, 12 GB K40c)",
		"framework", "depth", "n3", "paper depth", "vs paper 2nd-best x")
	rows := must(MaxDepths(16, 2600))
	for i, f := range policy.All {
		t.Add(f.Name, fmt.Sprint(rows[i].Depth), fmt.Sprint(rows[i].N3),
			fmt.Sprint(paperTable4[f.Name]),
			fmt.Sprintf("%.2f", float64(rows[i].Depth)/592)) // paper's 2nd best: TensorFlow 592
	}
	return t
}

// Table5Data measures the largest trainable batch for every
// (framework, network) pair; Table5 and Fig13 share it.
func Table5Data() map[string]map[string]int {
	batches := must(MaxBatches(paperNets, workload.Table5SearchLimit))
	out := make(map[string]map[string]int, len(paperNets))
	for i, n := range paperNets {
		out[n] = make(map[string]int, len(policy.All))
		for j, f := range policy.All {
			out[n][f.Name] = batches[i][j]
		}
	}
	return out
}

// Table5 reproduces the going-wider study from the given data (use
// Table5Data). Paper N/A entries print as "N/A".
func Table5(data map[string]map[string]int) *metrics.Table {
	t := metrics.NewTable(
		"Table 5: largest trainable batch (12 GB K40c)",
		"network", "Caffe", "MXNet", "Torch", "TensorFlow", "SuperNeurons",
		"paper: Caffe", "MXNet", "Torch", "TF", "SN")
	fw := []string{"Caffe", "MXNet", "Torch", "TensorFlow", "SuperNeurons"}
	napr := func(v int) string {
		if v == 0 {
			return "N/A"
		}
		return fmt.Sprint(v)
	}
	for _, n := range paperNets {
		row := []string{n}
		for _, f := range fw {
			row = append(row, fmt.Sprint(data[n][f]))
		}
		for _, f := range fw {
			row = append(row, napr(paperTable5[n][f]))
		}
		t.Add(row...)
	}
	return t
}
