// Package policy models the memory-management policies of the deep
// learning frameworks the paper compares against (§2.2, §4.2) and
// drives the capacity searches behind Tables 4 and 5. Every framework
// runs on the same simulated substrate (internal/core), so the
// comparisons isolate exactly the policy differences:
//
//   - Caffe: the whole network stays resident; forward tensors are
//     reused for backward only through the executor's in-place
//     gradient chains. No liveness, no swapping, no recomputation.
//   - Torch: Caffe's policy plus pervasive in-place ReLU/Dropout
//     forwards (nn.ReLU(true)).
//   - MXNet: DAG liveness analysis plus the per-segment speed-centric
//     recomputation of Chen et al. — no swapping, so checkpoint
//     outputs accumulate on the GPU.
//   - TensorFlow: DAG liveness plus "swap long-lived tensors to CPU":
//     single-consumer forward outputs move to pageable host memory on
//     demand (no pinned staging, no prefetch overlap — the ≥50%
//     communication-speed loss §2.2 describes), no recomputation.
//   - SuperNeurons: the full runtime — liveness + pinned
//     prefetch/offload of checkpoints and join tensors + LRU tensor
//     cache + cost-aware recomputation + memory pool + dynamic
//     convolution workspaces.
package policy

import (
	"errors"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/par"
)

// Framework names a memory policy. Configs returns the runtime
// configurations tried in order until one fits — TensorFlow's memory
// optimizer, for instance, only inserts swap nodes when the plain
// execution would not fit. Every configuration is an internal/core
// manager's Config, so the comparisons run the managers' donor
// policies rather than ad-hoc flag combinations.
type Framework struct {
	Name    string
	Configs func(d hw.DeviceSpec) []core.Config
}

// Config returns the framework's primary (preferred) configuration.
func (f Framework) Config(d hw.DeviceSpec) core.Config { return f.Configs(d)[0] }

// managed returns a Configs func routing to the named core managers
// in fallback order. The names are fixed at package level, so an
// unknown one is a programming error and panics.
func managed(managers ...string) func(d hw.DeviceSpec) []core.Config {
	return func(d hw.DeviceSpec) []core.Config {
		out := make([]core.Config, len(managers))
		for i, m := range managers {
			cfg, err := core.ManagerConfig(m, d)
			if err != nil {
				panic(err)
			}
			out[i] = cfg
		}
		return out
	}
}

// Caffe keeps the whole network resident and caps each convolution's
// workspace at its conservative 8 MiB default.
var Caffe = Framework{Name: "Caffe", Configs: managed("caffe")}

// Torch is Caffe's policy plus in-place activations and a somewhat
// larger static workspace cap.
var Torch = Framework{Name: "Torch", Configs: managed("torch")}

// MXNet runs liveness plus speed-centric recomputation with its 1 GiB
// per-layer workspace default.
var MXNet = Framework{Name: "MXNet", Configs: managed("mxnet")}

// TensorFlow runs liveness, first without swapping; when the network
// does not fit, its memory optimizer inserts pageable on-demand
// swap-out/swap-in pairs for single-consumer tensors.
var TensorFlow = Framework{Name: "TensorFlow", Configs: managed("tensorflow", "tensorflow-swap")}

// SuperNeurons is the paper's full runtime.
var SuperNeurons = Framework{Name: "SuperNeurons", Configs: managed("superneurons")}

// VDNN models Rhu et al.'s vDNN (§5): eager pinned offloading of every
// sizable single-consumer tensor with prefetching — but no
// recomputation, no tensor cache, and no dynamic workspace policy
// beyond a fixed cap. Its performance depends entirely on the
// communication/computation ratio, which is the weakness on non-linear
// networks the paper calls out.
var VDNN = Framework{Name: "vDNN", Configs: managed("vdnn")}

// All lists the frameworks in the paper's table order.
var All = []Framework{Caffe, MXNet, Torch, TensorFlow, SuperNeurons}

// ByName returns the framework with the given name, or false.
func ByName(name string) (Framework, bool) {
	for _, f := range All {
		if f.Name == name {
			return f, true
		}
	}
	return Framework{}, false
}

// run executes the framework's configurations in order until one
// fits and returns its result and the index of the configuration; it
// returns a nil result when all of them run out of memory.
func run(f Framework, net *nnet.Net, d hw.DeviceSpec) (*core.Result, int, error) {
	for i, cfg := range f.Configs(d) {
		r, err := core.Run(net, cfg)
		if err == nil {
			return r, i, nil
		}
		if !errors.Is(err, core.ErrOutOfMemory) {
			return nil, 0, err
		}
	}
	return nil, 0, nil
}

// MaxBatch returns the largest batch in [1, hi] the framework can
// train. Returns 0 if even batch 1 fails. The search calls build once
// and re-shapes that network for every later probe.
func MaxBatch(f Framework, build nnet.BuilderFunc, d hw.DeviceSpec, hi int) (int, error) {
	return largestFitting(prober(f, d, rebatcher(build)), hi, d.UsableBytes)
}

// MaxDepth returns the deepest Table-4 ResNet (n1=6, n2=32, n4=6,
// varying n3 in [1, maxN3]) the framework can train at the given
// batch, as (n3, depth). Returns (0,0) if even n3=1 fails.
func MaxDepth(f Framework, d hw.DeviceSpec, batch, maxN3 int) (int, int, error) {
	build := func(n3 int) *nnet.Net { return nnet.ResNetTable4(batch, n3) }
	n3, err := largestFitting(prober(f, d, build), maxN3, d.UsableBytes)
	if err != nil || n3 == 0 {
		return 0, 0, err
	}
	return n3, nnet.ResNetDepth(6, 32, n3, 6), nil
}

// rebatcher returns a build func for a batch search over one network:
// it calls build for the first batch asked and re-shapes that network
// with Rebatch for every later one. A search runs its probes one at a
// time and core.Run keeps no reference to the network, so one network
// serves the whole search. This shares a buffer, not a result: every
// probe still runs in full.
func rebatcher(build nnet.BuilderFunc) func(int) *nnet.Net {
	var net *nnet.Net
	return func(b int) *nnet.Net {
		if net == nil {
			net = build(b)
		} else {
			net.Rebatch(b)
		}
		return net
	}
}

// prober returns the capacity search's probe: one full run of the
// framework on build(n), reporting whether it fits and what it used.
func prober(f Framework, d hw.DeviceSpec, build func(int) *nnet.Net) func(int) (demand, bool, error) {
	return func(n int) (demand, bool, error) {
		r, cfg, err := run(f, build(n), d)
		if err != nil || r == nil {
			return demand{}, false, err
		}
		return demand{config: cfg, pool: r.PoolPeak, floor: r.PersistentBytes + r.LPeak}, true, nil
	}
}

// Speed returns the training throughput (img/s) of the framework on
// the network, or 0 when it does not fit.
func Speed(f Framework, net *nnet.Net, d hw.DeviceSpec) (float64, error) {
	r, _, err := run(f, net, d)
	if err != nil || r == nil {
		return 0, err
	}
	return r.Throughput, nil
}

// BatchSweep measures img/s for each framework over the batch sizes,
// running frameworks in parallel. Entry [i][j] is frameworks[i] at
// batches[j]; 0 marks out-of-memory. The sweep builds the network once;
// each framework's row re-shapes its own clone per batch.
func BatchSweep(frameworks []Framework, build nnet.BuilderFunc, d hw.DeviceSpec, batches []int) ([][]float64, error) {
	proto := build(1)
	return par.MapErr(frameworks, 0, func(f Framework) ([]float64, error) {
		net := proto.Clone()
		row := make([]float64, len(batches))
		for j, b := range batches {
			net.Rebatch(b)
			s, err := Speed(f, net, d)
			if err != nil {
				return nil, err
			}
			row[j] = s
		}
		return row, nil
	})
}
