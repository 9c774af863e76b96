package core

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/utp"
)

const mib = float64(1 << 20)

func mustRun(t *testing.T, net *nnet.Net, cfg Config) *Result {
	t.Helper()
	r, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// alexConfigs returns the four stacked configurations of the paper's
// Fig. 10: baseline, +liveness, +offload, +recomputation.
func alexConfigs(d hw.DeviceSpec) (base, live, off, rec Config) {
	base = Baseline(d)
	live = base
	live.Liveness = true
	off = live
	off.Offload = utp.OffloadConv
	off.Prefetch = true
	rec = off
	rec.Recompute = recompute.CostAware
	return
}

func TestFig10MemoryReductionChain(t *testing.T) {
	net := nnet.AlexNet(200)
	base, live, off, rec := alexConfigs(hw.TeslaK40c)

	r0 := mustRun(t, net, base)
	r1 := mustRun(t, nnet.AlexNet(200), live)
	r2 := mustRun(t, nnet.AlexNet(200), off)
	r3 := mustRun(t, nnet.AlexNet(200), rec)

	// The paper's headline chain: Σf+Σb > liveness > +offload > +recompute.
	if !(r0.PeakResident > r1.PeakResident &&
		r1.PeakResident > r2.PeakResident &&
		r2.PeakResident > r3.PeakResident) {
		t.Fatalf("peak chain broken: %d > %d > %d > %d",
			r0.PeakResident, r1.PeakResident, r2.PeakResident, r3.PeakResident)
	}
	// Baseline equals the analytic Σ l_i^f + Σ l_i^b.
	if r0.PeakResident != r0.BaselineBytes {
		t.Errorf("baseline peak %d != Σf+Σb %d", r0.PeakResident, r0.BaselineBytes)
	}
	// Fig. 10a: liveness peak is 1489.355 MB at backward POOL5.
	if got := float64(r1.PeakResident) / mib; got < 1489.3 || got > 1489.4 {
		t.Errorf("liveness peak = %.3f MiB, paper says 1489.355", got)
	}
	if r1.Steps[r1.PeakStep].Label != "pool5 bwd" {
		t.Errorf("liveness peak at %q, paper says backward POOL5", r1.Steps[r1.PeakStep].Label)
	}
	// Fig. 10b: offload drops the peak by another ~300 MB; the paper
	// measured 1132.155 (ours lands within ~10%: the prefetch window
	// differs slightly).
	if got := float64(r2.PeakResident) / mib; got < 1000 || got > 1250 {
		t.Errorf("offload peak = %.3f MiB, paper says 1132.155", got)
	}
	// Fig. 10c: the full stack approaches max(l_i) = 886.23 MiB.
	if got := float64(r3.PeakResident) / mib; got < 886 || got > 980 {
		t.Errorf("recompute peak = %.3f MiB, paper says ~886.4", got)
	}
	if got := float64(r3.LPeak) / mib; got < 886.22 || got > 886.24 {
		t.Errorf("lpeak = %.3f MiB, want 886.23", got)
	}
}

func TestRecomputeStrategiesOnAlexNet(t *testing.T) {
	_, _, off, _ := alexConfigs(hw.TeslaK40c)

	speeds := off
	speeds.Recompute = recompute.SpeedCentric
	rs := mustRun(t, nnet.AlexNet(200), speeds)

	mems := off
	mems.Recompute = recompute.MemoryCentric
	rm := mustRun(t, nnet.AlexNet(200), mems)

	cas := off
	cas.Recompute = recompute.CostAware
	rc := mustRun(t, nnet.AlexNet(200), cas)

	// Measured replay counts: speed-centric replays each segment once
	// (14 layer forwards, matching the paper's count exactly);
	// memory-centric replays prefixes per backward step; cost-aware
	// sits in between.
	if rs.ExtraForwards != 14 {
		t.Errorf("speed-centric extras = %d, want 14", rs.ExtraForwards)
	}
	if !(rs.ExtraForwards < rc.ExtraForwards && rc.ExtraForwards < rm.ExtraForwards) {
		t.Errorf("extras ordering broken: %d < %d < %d",
			rs.ExtraForwards, rc.ExtraForwards, rm.ExtraForwards)
	}
	// Memory-centric reaches the floor exactly: peak == max(l_i),
	// the paper's 886.23 MB.
	if rm.PeakResident != rm.LPeak {
		t.Errorf("memory-centric peak %.3f != lpeak %.3f",
			float64(rm.PeakResident)/mib, float64(rm.LPeak)/mib)
	}
	// Cost-aware's peak matches memory-centric's within the prefetch
	// window while costing nearly as few replays as speed-centric.
	if float64(rc.PeakResident) > 1.1*float64(rm.PeakResident) {
		t.Errorf("cost-aware peak %.3f too far above memory-centric %.3f",
			float64(rc.PeakResident)/mib, float64(rm.PeakResident)/mib)
	}
	if rs.PeakResident <= rc.PeakResident {
		t.Error("speed-centric must use more memory than cost-aware")
	}
}

func TestResNetMeasuredReplayCounts(t *testing.T) {
	_, _, off, _ := alexConfigs(hw.TeslaK40c)
	off.Offload = utp.OffloadConvAndKept
	for _, c := range []struct {
		depth                 int
		speed, memory, costAw int
	}{
		// Measured counts: lower than the paper's analytic 84/118/85
		// and 169/237/170 because cuDNN backward kernels do not
		// consume every forward tensor (e.g. nothing reads a
		// pre-join BN output in backward). The analytic counts are
		// asserted against the paper in internal/recompute.
		{50, 68, 137, 70},
		{101, 136, 273, 138},
	} {
		for _, s := range []struct {
			strat recompute.Strategy
			want  int
		}{
			{recompute.SpeedCentric, c.speed},
			{recompute.MemoryCentric, c.memory},
			{recompute.CostAware, c.costAw},
		} {
			cfg := off
			cfg.Recompute = s.strat
			r := mustRun(t, nnet.ResNet(c.depth, 16), cfg)
			if r.ExtraForwards != s.want {
				t.Errorf("ResNet%d %s extras = %d, want %d", c.depth, s.strat, r.ExtraForwards, s.want)
			}
		}
	}
}

func TestOffloadTrafficAndOverlap(t *testing.T) {
	_, _, off, _ := alexConfigs(hw.TeslaK40c)
	r := mustRun(t, nnet.AlexNet(200), off)
	// Eager offloading moves the five conv outputs (495.97 MiB) out
	// and back, plus the input batch re-upload.
	if got := float64(r.OffloadBytes) / mib; got < 495 || got > 500 {
		t.Errorf("offload traffic = %.1f MiB, want ~496", got)
	}
	if r.PrefetchBytes < r.OffloadBytes {
		t.Error("everything offloaded must come back (plus the input batch)")
	}
	// Both DMA engines actually ran, and communication overlapped
	// computation: total busy time across engines exceeds the
	// iteration's wall clock lower bound.
	if r.D2HBusy == 0 || r.H2DBusy == 0 {
		t.Fatal("DMA engines never ran")
	}
	hidden := r.D2HBusy + r.H2DBusy - r.StallTime
	if hidden <= 0 {
		t.Errorf("no communication was hidden: d2h %v h2d %v stalls %v",
			r.D2HBusy, r.H2DBusy, r.StallTime)
	}
}

func TestTensorCacheEliminatesTraffic(t *testing.T) {
	// Table 3: with the working set fitting in DRAM, the Tensor Cache
	// eliminates all offload/prefetch traffic.
	cfg := SuperNeurons(hw.TeslaK40c)
	r := mustRun(t, nnet.AlexNet(256), cfg)
	if r.TotalTraffic() != 0 {
		t.Errorf("traffic with tensor cache = %d bytes, want 0", r.TotalTraffic())
	}
	if r.CacheHits == 0 {
		t.Error("cache should be serving hits")
	}
	if r.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 when everything fits", r.Evictions)
	}
}

func TestTensorCacheEvictsUnderPressure(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.PoolBytes = 2200 * hw.MiB // fits working sets but not the whole resident set
	r := mustRun(t, nnet.AlexNet(300), cfg)
	if r.Evictions == 0 || r.OffloadBytes == 0 {
		t.Fatalf("expected evictions under pressure, got %d (%d bytes)",
			r.Evictions, r.OffloadBytes)
	}
}

func TestOOMOnTinyPool(t *testing.T) {
	cfg := Baseline(hw.TeslaK40c)
	cfg.PoolBytes = 256 * hw.MiB
	_, err := Run(nnet.AlexNet(256), cfg)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestSuperNeuronsTrainsWhereBaselineCannot(t *testing.T) {
	// The paper's raison d'être: the full runtime trains networks the
	// naive strategy cannot fit. ResNet-50 at batch 224 wants ~29 GB
	// naively; SuperNeurons runs it in 12 GB.
	net := nnet.ResNet(50, 224)
	if _, err := Run(net, Baseline(hw.TeslaK40c)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("baseline unexpectedly fit (err=%v)", err)
	}
	r := mustRun(t, nnet.ResNet(50, 224), SuperNeurons(hw.TeslaK40c))
	if r.Throughput <= 0 {
		t.Error("training produced no throughput")
	}
}

func TestDeepResNetDepthIndependentPeak(t *testing.T) {
	// With conv+kept offloading and recomputation, the functional peak
	// is bounded by max(l_i), not by depth — the paper's ResNet-2500
	// enabler. Compare two depths at batch 4.
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false // eager mode exposes the bound directly
	r1 := mustRun(t, nnet.ResNetStages(4, 3, 4, 6, 3), cfg)
	r2 := mustRun(t, nnet.ResNetStages(4, 3, 4, 30, 3), cfg)
	ratio := float64(r2.PeakResident) / float64(r1.PeakResident)
	if ratio > 1.15 {
		t.Errorf("peak grew %.2fx with 4x depth; should be ~flat", ratio)
	}
}

func TestMemoryPoolFasterThanNative(t *testing.T) {
	// Table 2: the preallocated pool amortizes cudaMalloc/cudaFree.
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false
	rPool := mustRun(t, nnet.ResNet(50, 16), cfg)
	cfg.UseMemPool = false
	rNative := mustRun(t, nnet.ResNet(50, 16), cfg)
	speedup := rPool.Throughput / rNative.Throughput
	if speedup < 1.2 {
		t.Errorf("pool speedup on ResNet-50 = %.2fx, paper says 1.53x", speedup)
	}
	if rNative.AllocTime <= rPool.AllocTime {
		t.Error("native allocator must spend more time in malloc/free")
	}
}

func TestDynamicWorkspaceSpeedsTraining(t *testing.T) {
	// Fig. 2: convolution workspaces buy 1.2-2.5x.
	cfg := SuperNeurons(hw.TitanXP)
	fast := mustRun(t, nnet.AlexNet(200), cfg)
	cfg.DynamicWorkspace = false
	slow := mustRun(t, nnet.AlexNet(200), cfg)
	ratio := fast.Throughput / slow.Throughput
	if ratio < 1.1 || ratio > 2.6 {
		t.Errorf("workspace speedup = %.2fx, want within [1.1, 2.6]", ratio)
	}
	// Assigned workspace never exceeds the max-speed request.
	for _, s := range fast.Steps {
		if s.WorkspaceBytes > s.MaxSpeedWorkspace {
			t.Fatalf("step %s: assigned ws %d > max-speed ws %d", s.Label, s.WorkspaceBytes, s.MaxSpeedWorkspace)
		}
	}
}

func TestWorkspaceShrinksUnderPressure(t *testing.T) {
	// Fig. 12: with less pool the runtime sacrifices workspace, not
	// functionality.
	big := SuperNeurons(hw.TitanXP)
	big.PoolBytes = 5 * hw.GiB
	small := SuperNeurons(hw.TitanXP)
	small.PoolBytes = 3 * hw.GiB
	rb := mustRun(t, nnet.AlexNet(300), big)
	rs := mustRun(t, nnet.AlexNet(300), small)
	wsb, wss := int64(0), int64(0)
	for i := range rb.Steps {
		wsb += rb.Steps[i].WorkspaceBytes
		wss += rs.Steps[i].WorkspaceBytes
	}
	if wss >= wsb {
		t.Errorf("workspace under 3G (%d) should be below 5G (%d)", wss, wsb)
	}
	if rs.Throughput >= rb.Throughput {
		t.Errorf("throughput under 3G (%.1f) should be below 5G (%.1f)", rs.Throughput, rb.Throughput)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	r1 := mustRun(t, nnet.ResNet(50, 32), cfg)
	r2 := mustRun(t, nnet.ResNet(50, 32), cfg)
	if r1.PeakResident != r2.PeakResident || r1.IterTime != r2.IterTime ||
		r1.TotalTraffic() != r2.TotalTraffic() || r1.ExtraForwards != r2.ExtraForwards {
		t.Fatal("identical configurations must produce identical results")
	}
}

func TestMultipleIterationsSteadyState(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.Iterations = 3
	r3 := mustRun(t, nnet.AlexNet(64), cfg)
	cfg.Iterations = 1
	r1 := mustRun(t, nnet.AlexNet(64), cfg)
	if r3.IterTime != r1.IterTime {
		t.Errorf("per-iteration time drifts: %v vs %v", r3.IterTime, r1.IterTime)
	}
}

func TestInPlaceActReducesBaseline(t *testing.T) {
	base := Baseline(hw.TeslaK40c)
	r := mustRun(t, nnet.VGG16(16), base)
	base.InPlaceAct = true
	rIn := mustRun(t, nnet.VGG16(16), base)
	if rIn.PeakResident >= r.PeakResident {
		t.Errorf("in-place activations must reduce the resident set: %d vs %d",
			rIn.PeakResident, r.PeakResident)
	}
}

func TestAllArchitecturesRunUnderSuperNeurons(t *testing.T) {
	for _, e := range nnet.Registry {
		r := mustRun(t, e.Build(8), SuperNeurons(hw.TeslaK40c))
		if r.Throughput <= 0 {
			t.Errorf("%s: no throughput", e.Name)
		}
		if r.PeakResident <= 0 || r.PeakResident > 12*hw.GiB {
			t.Errorf("%s: peak %d out of range", e.Name, r.PeakResident)
		}
	}
}

func TestExternalPoolHierarchy(t *testing.T) {
	// Fig. 7: the Unified Tensor Pool fills its tiers in order. With
	// only 256 MiB of pinned CPU DRAM some offloads cannot leave the
	// GPU; each added tier behind a full one must take that spill,
	// moving more bytes off the device and lowering the peak.
	run := func(pools ...ExternalPool) *Result {
		cfg := SuperNeurons(hw.TeslaK40c)
		cfg.TensorCache = false // eager offloads exercise the hierarchy
		cfg.HostBytes = 256 * hw.MiB
		cfg.ExternalPools = pools
		return mustRun(t, nnet.AlexNet(200), cfg)
	}
	cpu := run()
	peer := run(PeerGPUPool(8 * hw.GiB))
	fullPeer := run(PeerGPUPool(64 * hw.MiB))
	remote := run(PeerGPUPool(64*hw.MiB), RemotePool(64*hw.GiB))
	for _, c := range []struct {
		name          string
		before, after *Result
	}{
		{"peer behind cpu", cpu, peer},
		{"remote behind cpu and a full peer", fullPeer, remote},
	} {
		if c.after.OffloadBytes <= c.before.OffloadBytes {
			t.Errorf("%s: the added tier must take more offloads: %d vs %d bytes",
				c.name, c.after.OffloadBytes, c.before.OffloadBytes)
		}
		if c.after.PeakResident >= c.before.PeakResident {
			t.Errorf("%s: the added tier must lower the peak: %d vs %d bytes",
				c.name, c.after.PeakResident, c.before.PeakResident)
		}
	}
	// The same offload volume costs more over RDMA than over PCIe P2P
	// to a peer large enough to hold all of it.
	if remote.OffloadBytes != peer.OffloadBytes {
		t.Fatalf("offload volumes differ: remote %d vs peer %d bytes", remote.OffloadBytes, peer.OffloadBytes)
	}
	if remote.Throughput >= peer.Throughput {
		t.Errorf("spilling to the remote tier should be slower: %.1f vs %.1f img/s",
			remote.Throughput, peer.Throughput)
	}
}

func TestRemotePoolSlowerThanLocal(t *testing.T) {
	// RDMA offloading works but costs more than pinned local DRAM.
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false
	local, err := Run(nnet.AlexNet(200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HostBytes = 64 * hw.MiB // force nearly everything remote
	cfg.ExternalPools = []ExternalPool{RemotePool(64 * hw.GiB)}
	remote, err := Run(nnet.AlexNet(200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Throughput >= local.Throughput {
		t.Errorf("remote offloading should be slower: %.1f vs %.1f img/s",
			remote.Throughput, local.Throughput)
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false
	cfg.CollectTrace = true
	r := mustRun(t, nnet.AlexNet(64), cfg)
	if len(r.Trace) == 0 {
		t.Fatal("no spans collected")
	}
	lanes := map[string]bool{}
	for _, s := range r.Trace {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
		lanes[s.Lane] = true
	}
	for _, want := range []string{"compute", "d2h", "h2d"} {
		if !lanes[want] {
			t.Errorf("lane %q missing from trace", want)
		}
	}
	// Without the flag, no spans are kept.
	cfg.CollectTrace = false
	if r := mustRun(t, nnet.AlexNet(64), cfg); len(r.Trace) != 0 {
		t.Error("spans collected without CollectTrace")
	}
}

func TestStepProfileCount(t *testing.T) {
	net := nnet.AlexNet(8)
	r := mustRun(t, net, SuperNeurons(hw.TeslaK40c))
	if len(r.Steps) != 2*len(net.Nodes)-1 {
		t.Errorf("profile has %d steps, want %d", len(r.Steps), 2*len(net.Nodes)-1)
	}
}

func TestSGDUpdatePhase(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	plain := mustRun(t, nnet.AlexNet(64), cfg)
	cfg.SGDUpdate = true
	updated := mustRun(t, nnet.AlexNet(64), cfg)
	if len(updated.Steps) != len(plain.Steps)+1 {
		t.Fatalf("update must add one profile step: %d vs %d", len(updated.Steps), len(plain.Steps))
	}
	last := updated.Steps[len(updated.Steps)-1]
	if last.Label != "sgd update" || last.Time <= 0 {
		t.Errorf("update step = %+v", last)
	}
	if updated.IterTime <= plain.IterTime {
		t.Error("the update must lengthen the iteration")
	}
	// The update's momentum buffer is persistent state: one value per
	// parameter, on the GPU for the whole run.
	params := nnet.AlexNet(64).ParamBytes()
	if got := updated.PersistentBytes - plain.PersistentBytes; got != params {
		t.Errorf("momentum adds %d persistent bytes, want ParamBytes %d", got, params)
	}

	// A pool sized to the plain baseline's peak holds the plain run but
	// not the momentum on top of it.
	base := Baseline(hw.TeslaK40c)
	base.PoolBytes = mustRun(t, nnet.AlexNet(64), base).PoolPeak
	mustRun(t, nnet.AlexNet(64), base)
	base.SGDUpdate = true
	if _, err := Run(nnet.AlexNet(64), base); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("update run in the plain run's pool: err = %v, want ErrOutOfMemory", err)
	}
}

func TestPrefetchLowersIterTime(t *testing.T) {
	// §3.3.1: prefetching one checkpoint ahead overlaps the H2D copies
	// with backward compute; without it every offloaded tensor is
	// fetched on demand at its first use.
	iter := func(prefetch bool) sim.Duration {
		cfg := SuperNeurons(hw.TeslaK40c)
		cfg.TensorCache = false // eager offloads, so backward must fetch
		cfg.Prefetch = prefetch
		return mustRun(t, nnet.VGG16(64), cfg).IterTime
	}
	on, off := iter(true), iter(false)
	if on >= off {
		t.Errorf("prefetch on %v must beat prefetch off %v", on, off)
	}
}

func TestOffloadModesPeakOrder(t *testing.T) {
	// §3.3.1 offloads CONV outputs; adding the tensors kept across
	// joins (conv+kept) is what makes a deep ResNet's peak fall below
	// both CONV-only and TensorFlow-style swap-all.
	peak := map[utp.Mode]int64{}
	for _, mode := range []utp.Mode{utp.OffloadNone, utp.OffloadConv, utp.OffloadConvAndKept, utp.OffloadSwapAll} {
		cfg := SuperNeurons(hw.TeslaK40c)
		cfg.TensorCache = false
		cfg.Offload = mode
		cfg.Prefetch = mode != utp.OffloadNone
		peak[mode] = mustRun(t, nnet.ResNet(101, 16), cfg).PeakResident
	}
	none, conv, kept, swap := peak[utp.OffloadNone], peak[utp.OffloadConv], peak[utp.OffloadConvAndKept], peak[utp.OffloadSwapAll]
	if !(kept < conv && conv < none) {
		t.Errorf("want conv+kept < conv < none, got %d, %d, %d bytes", kept, conv, none)
	}
	if kept >= swap {
		t.Errorf("conv+kept peak %d must undercut swap-all %d", kept, swap)
	}
}
