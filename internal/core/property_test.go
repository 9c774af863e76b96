package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/recompute"
	"repro/internal/utp"
)

// randomConfig derives an arbitrary-but-valid configuration from the
// rng, covering the full cross-product of the runtime's techniques.
func randomConfig(rng *rand.Rand) Config {
	cfg := Config{
		Device:     hw.TeslaK40c,
		HostLink:   hw.PCIePinned,
		UseMemPool: rng.Intn(4) > 0,
	}
	if rng.Intn(2) == 0 {
		cfg.HostLink = hw.PCIePageable
	}
	cfg.Liveness = rng.Intn(4) > 0
	if cfg.Liveness {
		cfg.Offload = utp.Mode(rng.Intn(4))
		cfg.Prefetch = rng.Intn(2) == 0
		cfg.TensorCache = rng.Intn(2) == 0
		cfg.Recompute = recompute.Strategy(rng.Intn(4))
	}
	cfg.DynamicWorkspace = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		cfg.WorkspaceLimit = int64(rng.Intn(256)+8) * hw.MiB
	}
	cfg.InPlaceAct = rng.Intn(3) == 0
	if rng.Intn(3) == 0 {
		cfg.ExternalPools = []ExternalPool{PeerGPUPool(4 * hw.GiB)}
	}
	return cfg
}

// TestExecutorInvariantsUnderRandomConfigs is the executor's fuzz
// harness: any combination of techniques must run AlexNet and
// ResNet-50 without errors, deterministically, with the peak bounded
// below by max(l_i) and above by Σf+Σb, and the pool high-water within
// capacity.
func TestExecutorInvariantsUnderRandomConfigs(t *testing.T) {
	nets := []func() *nnet.Net{
		func() *nnet.Net { return nnet.AlexNet(16) },
		func() *nnet.Net { return nnet.ResNet(50, 4) },
		func() *nnet.Net { return nnet.DenseNet121(2) },
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		build := nets[rng.Intn(len(nets))]

		r1, err := Run(build(), cfg)
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
		}
		r2, err := Run(build(), cfg)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if r1.PeakResident != r2.PeakResident || r1.IterTime != r2.IterTime ||
			r1.TotalTraffic() != r2.TotalTraffic() || r1.ExtraForwards != r2.ExtraForwards {
			t.Fatalf("seed %d: nondeterministic results", seed)
		}
		if r1.PeakResident < r1.LPeak {
			t.Fatalf("seed %d: peak %d below max(l_i) %d", seed, r1.PeakResident, r1.LPeak)
		}
		if r1.PeakResident > r1.BaselineBytes {
			t.Fatalf("seed %d: peak %d above Σf+Σb %d", seed, r1.PeakResident, r1.BaselineBytes)
		}
		if r1.PoolPeak > cfg.withDefaults().PoolBytes {
			t.Fatalf("seed %d: pool peak %d above capacity", seed, r1.PoolPeak)
		}
		if r1.IterTime <= 0 || r1.Throughput <= 0 {
			t.Fatalf("seed %d: degenerate timing %v / %v", seed, r1.IterTime, r1.Throughput)
		}
	}
}

// TestHostPoolExhaustionIsGraceful injects an undersized pinned host
// pool: offloads that cannot find host room simply stay resident, and
// training must still complete (at a higher peak) rather than fail.
func TestHostPoolExhaustionIsGraceful(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false
	cfg.HostBytes = 1 * hw.MiB // nothing fits
	r, err := Run(nnet.AlexNet(200), cfg)
	if err != nil {
		t.Fatalf("host exhaustion must not fail the run: %v", err)
	}
	if r.OffloadBytes != 0 {
		t.Errorf("no offload should have succeeded, moved %d bytes", r.OffloadBytes)
	}
	cfg.HostBytes = 0 // default, plenty
	r2, err := Run(nnet.AlexNet(200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakResident <= r2.PeakResident {
		t.Error("without host room the peak must be higher")
	}
}

// TestCacheThrashingTerminates stresses the eviction path: a pool
// barely above the working set forces continuous evictions and
// refetches, which must converge, not livelock.
func TestCacheThrashingTerminates(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.PoolBytes = 2 * hw.GiB
	r, err := Run(nnet.AlexNet(256), cfg)
	if err != nil {
		// A clean OOM is acceptable at this margin; a hang is not.
		if !errors.Is(err, ErrOutOfMemory) {
			t.Fatal(err)
		}
		return
	}
	if r.Evictions == 0 {
		t.Error("expected eviction pressure at this pool size")
	}
}

// TestPageableLinkSlowsOffloading verifies the §2.2 claim that
// pageable transfers cost at least 50% of the communication speed.
func TestPageableLinkSlowsOffloading(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c)
	cfg.TensorCache = false
	pinned := mustRun(t, nnet.AlexNet(200), cfg)
	cfg.HostLink = hw.PCIePageable
	pageable := mustRun(t, nnet.AlexNet(200), cfg)
	if pageable.Throughput >= pinned.Throughput {
		t.Errorf("pageable %f must be slower than pinned %f",
			pageable.Throughput, pinned.Throughput)
	}
}

// TestInPlaceActUnderOffloadAndRecompute covers in-place activations
// combined with eager offload and recomputation: a replayed in-place
// ReLU writes over its producer's buffer, which the replay has just
// fetched back, so it must neither allocate a second copy nor let the
// streaming free drop that buffer behind the replay front. Every
// strategy that drops tensors, with and without prefetch, must finish
// without accounting drift and within the peak bounds. Under the CONV
// offload sets the host copies are the same tensors with and without
// in-place sharing, so sharing must not add fetch traffic; swap-all
// offloads an aliased activation once instead of twice, so its
// traffic is not comparable.
func TestInPlaceActUnderOffloadAndRecompute(t *testing.T) {
	for _, mode := range []utp.Mode{utp.OffloadConv, utp.OffloadConvAndKept, utp.OffloadSwapAll} {
		for _, s := range []recompute.Strategy{recompute.SpeedCentric, recompute.MemoryCentric, recompute.CostAware} {
			for _, prefetch := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/prefetch=%t", mode, s, prefetch)
				cfg := SuperNeurons(hw.TeslaK40c)
				cfg.TensorCache = false
				cfg.Offload, cfg.Recompute, cfg.Prefetch = mode, s, prefetch
				plain := mustRun(t, nnet.AlexNet(16), cfg)
				cfg.InPlaceAct = true
				r, err := Run(nnet.AlexNet(16), cfg)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if r.ExtraForwards == 0 {
					t.Errorf("%s: no replays ran", name)
				}
				if r.PeakResident < r.LPeak || r.PeakResident > r.BaselineBytes {
					t.Errorf("%s: peak %d outside [%d, %d]", name, r.PeakResident, r.LPeak, r.BaselineBytes)
				}
				if mode != utp.OffloadSwapAll && r.PrefetchBytes > plain.PrefetchBytes {
					t.Errorf("%s: in-place sharing fetched %d bytes, %d without it",
						name, r.PrefetchBytes, plain.PrefetchBytes)
				}
			}
		}
	}
}
