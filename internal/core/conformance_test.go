package core

// Conformance suite for the memory managers: every named
// manager must obey the executor's invariants (OOM surfacing,
// determinism, peak bounds, offload-before-fetch ordering), and every
// manager's Config must equal the seed executor's flag combination for
// its policy.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/recompute"
	"repro/internal/utp"
)

// conformanceManagers are the managers the suite exercises:
// the paper's runtime, the vDNN-style offload-everything policy and
// the naive keep-everything baseline, plus the framework models that
// share the same mechanisms.
var conformanceManagers = []string{
	"superneurons", "vdnn", "naive",
	"caffe", "torch", "mxnet", "tensorflow", "tensorflow-swap",
}

// mustManager returns the named manager's Config on the K40c.
func mustManager(name string) Config {
	cfg, err := ManagerConfig(name, hw.TeslaK40c)
	if err != nil {
		panic(err)
	}
	return cfg
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range append([]string{"custom"}, conformanceManagers...) {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("manager %q not registered (have %v)", want, names)
		}
	}
	empty, err := ManagerConfig("", hw.TeslaK40c)
	if err != nil {
		t.Fatalf("empty name must resolve to custom: %v", err)
	}
	if custom := mustManager("custom"); !reflect.DeepEqual(empty, custom) {
		t.Errorf("empty name resolved to %+v, want custom's %+v", empty, custom)
	}
	if want := (Config{Device: hw.TeslaK40c}); !reflect.DeepEqual(empty, want) {
		t.Errorf("custom = %+v, want the bare device %+v", empty, want)
	}
}

// TestUnknownManagerErrors checks an unknown name fails and that the
// error lists every manager, so a caller can correct the typo.
func TestUnknownManagerErrors(t *testing.T) {
	_, err := ManagerConfig("does-not-exist", hw.TeslaK40c)
	if err == nil || !strings.Contains(err.Error(), "unknown memory manager") {
		t.Fatalf("err = %v, want unknown-manager error", err)
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
}

// TestManagerFlagsTakeEffect checks a run executes exactly its Config:
// a technique flag set on a manager's Config is honored, not replaced
// by the manager's own setting.
func TestManagerFlagsTakeEffect(t *testing.T) {
	caffe := mustManager("caffe")
	plain, err := Run(nnet.AlexNet(64), caffe)
	if err != nil {
		t.Fatal(err)
	}
	caffe.InPlaceAct = true
	inPlace, err := Run(nnet.AlexNet(64), caffe)
	if err != nil {
		t.Fatal(err)
	}
	if inPlace.PeakResident >= plain.PeakResident {
		t.Errorf("caffe+InPlaceAct peak %d, want below caffe's %d", inPlace.PeakResident, plain.PeakResident)
	}
}

// TestConformanceInvariants runs every manager through ample and
// pressured configurations, checking the shared executor contract.
func TestConformanceInvariants(t *testing.T) {
	for _, name := range conformanceManagers {
		t.Run(name, func(t *testing.T) {
			cfg := mustManager(name)
			cfg.CollectTrace = true
			r1, err := Run(nnet.AlexNet(64), cfg)
			if err != nil {
				t.Fatalf("ample run failed: %v", err)
			}
			r2, err := Run(nnet.AlexNet(64), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Error("identical configurations must produce identical Results")
			}
			if r1.IterTime <= 0 || r1.Throughput <= 0 {
				t.Errorf("degenerate timing: %v / %v", r1.IterTime, r1.Throughput)
			}
			if r1.PeakResident < r1.LPeak {
				t.Errorf("peak %d below max(l_i) %d", r1.PeakResident, r1.LPeak)
			}
			if r1.PeakResident > r1.BaselineBytes {
				t.Errorf("peak %d above Σf+Σb %d", r1.PeakResident, r1.BaselineBytes)
			}
			checkOffloadFetchOrdering(t, r1)

			// Keep-everything policies move no data. (Liveness-based
			// managers without swapping, like mxnet, still re-upload
			// the host-backed input batch, so they are not listed.)
			switch name {
			case "naive", "caffe", "torch":
				if r1.TotalTraffic() != 0 {
					t.Errorf("%s moved %d bytes; keep-resident policies must not", name, r1.TotalTraffic())
				}
			}

			// A pool too small for even the persistent state must
			// surface the OOM sentinel, whatever the policy.
			tiny := mustManager(name)
			tiny.PoolBytes = 32 * hw.MiB
			if _, err := Run(nnet.AlexNet(256), tiny); !errors.Is(err, ErrOutOfMemory) {
				t.Errorf("tiny pool err = %v, want ErrOutOfMemory", err)
			}

			// Under pressure each manager either trains (with its peak
			// still bounded) or OOMs cleanly — never hangs or corrupts
			// accounting (Run checks for leaks internally).
			pressured := cfg
			pressured.PoolBytes = 2200 * hw.MiB
			rp, err := Run(nnet.AlexNet(200), pressured)
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("pressured run: %v", err)
				}
				return
			}
			if rp.PoolPeak > pressured.PoolBytes {
				t.Errorf("pool peak %d above capacity %d", rp.PoolPeak, pressured.PoolBytes)
			}
			checkOffloadFetchOrdering(t, rp)
		})
	}
}

// checkOffloadFetchOrdering verifies the UTP protocol on the recorded
// trace: a tensor's first H2D fetch must not start before the D2H copy
// that put it on the host has completed (reading back a partially
// offloaded tensor would be garbage on real hardware).
func checkOffloadFetchOrdering(t *testing.T, r *Result) {
	t.Helper()
	type window struct {
		firstOffloadEnd    int64
		firstFetchStart    int64
		offloaded, fetched bool
	}
	byTensor := map[string]*window{}
	get := func(name string) *window {
		w := byTensor[name]
		if w == nil {
			w = &window{}
			byTensor[name] = w
		}
		return w
	}
	for _, s := range r.Trace {
		switch {
		case strings.HasPrefix(s.Name, "offload "), strings.HasPrefix(s.Name, "evict "):
			name := s.Name[strings.Index(s.Name, " ")+1:]
			w := get(name)
			if !w.offloaded || int64(s.End) < w.firstOffloadEnd {
				w.firstOffloadEnd = int64(s.End)
			}
			w.offloaded = true
		case strings.HasPrefix(s.Name, "fetch "):
			name := s.Name[len("fetch "):]
			w := get(name)
			if !w.fetched || int64(s.Start) < w.firstFetchStart {
				w.firstFetchStart = int64(s.Start)
			}
			w.fetched = true
		}
	}
	for name, w := range byTensor {
		// A fetch without a recorded offload is legal for exactly one
		// tensor: the input batch, which is host-backed by the data
		// pipeline at zero D2H cost (no span).
		if w.fetched && !w.offloaded && name != "data.y" {
			t.Errorf("tensor %s fetched but never offloaded", name)
		}
		if w.fetched && w.offloaded && w.firstFetchStart < w.firstOffloadEnd {
			t.Errorf("tensor %s fetched at %d before its offload completed at %d",
				name, w.firstFetchStart, w.firstOffloadEnd)
		}
	}
}

// TestManagersMatchSeedExecutor checks every manager's Config against
// the seed executor's flag combination for its policy. A run executes
// exactly its Config, so equal Configs give identical Results.
func TestManagersMatchSeedExecutor(t *testing.T) {
	// The flag surfaces are written out independently of the
	// managers' donor configs on purpose: a typo in managers.go (a
	// wrong cap, a lost pageable link) must fail here, not silently
	// shift the published capacity tables.
	flagEquivalents := map[string]func(d hw.DeviceSpec) Config{
		"custom":       func(d hw.DeviceSpec) Config { return Config{Device: d} },
		"superneurons": SuperNeurons,
		"naive":        Baseline,
		"vdnn": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePinned,
				UseMemPool: true, DynamicWorkspace: true,
				WorkspaceLimit: 512 * hw.MiB,
				Liveness:       true,
				Offload:        utp.OffloadSwapAll,
				Prefetch:       true,
			}
		},
		"mxnet": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePinned,
				UseMemPool: true, DynamicWorkspace: true,
				WorkspaceLimit: 1 * hw.GiB,
				Liveness:       true,
				Recompute:      recompute.SpeedCentric,
			}
		},
		"caffe": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePinned,
				UseMemPool: true, DynamicWorkspace: true,
				WorkspaceLimit: 8 * hw.MiB,
			}
		},
		"torch": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePinned,
				UseMemPool: true, DynamicWorkspace: true,
				WorkspaceLimit: 32 * hw.MiB,
				InPlaceAct:     true,
			}
		},
		"tensorflow": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePageable,
				UseMemPool: true, DynamicWorkspace: true,
				Liveness: true,
			}
		},
		"tensorflow-swap": func(d hw.DeviceSpec) Config {
			return Config{
				Device: d, HostLink: hw.PCIePageable,
				UseMemPool: true, DynamicWorkspace: true,
				Liveness: true,
				Offload:  utp.OffloadSwapAll,
			}
		},
	}
	for _, name := range Names() {
		flags, ok := flagEquivalents[name]
		if !ok {
			t.Errorf("manager %q has no flag equivalent", name)
			continue
		}
		if got, want := mustManager(name), flags(hw.TeslaK40c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Config %+v, want %+v", name, got, want)
		}
	}
}

// TestManagerCapacityOrdering checks the policy-level behavior the
// decomposition must preserve: the paper's runtime trains strictly
// larger workloads than vDNN, which beats the naive baseline.
func TestManagerCapacityOrdering(t *testing.T) {
	fits := func(manager string, batch int) bool {
		_, err := Run(nnet.ResNet(50, batch), mustManager(manager))
		if err != nil && !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("%s: %v", manager, err)
		}
		return err == nil
	}
	if !fits("superneurons", 224) {
		t.Error("superneurons must train ResNet-50 at batch 224 in 12 GB")
	}
	if fits("naive", 224) {
		t.Error("naive baseline must not fit ResNet-50 at batch 224")
	}
	if !fits("vdnn", 64) || fits("vdnn", 1024) {
		t.Error("vdnn capacity out of expected band")
	}
	if fits("naive", 64) {
		t.Error("naive baseline should already fail at batch 64")
	}
}
