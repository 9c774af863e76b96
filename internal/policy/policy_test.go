package policy

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestByName(t *testing.T) {
	if f, ok := ByName("SuperNeurons"); !ok || f.Name != "SuperNeurons" {
		t.Error("ByName(SuperNeurons) failed")
	}
	if _, ok := ByName("PyTorch"); ok {
		t.Error("unknown framework must not resolve")
	}
	if len(All) != 5 {
		t.Errorf("All has %d frameworks, want 5", len(All))
	}
}

// TestTrainable checks run's fallback chain: a fitting framework
// returns a result, and one whose every configuration runs out of
// memory returns none without an error.
func TestTrainable(t *testing.T) {
	r, _, err := run(SuperNeurons, nnet.AlexNet(32), hw.TeslaK40c)
	if err != nil || r == nil {
		t.Fatalf("AlexNet b32 must train: r=%v err=%v", r, err)
	}
	r, _, err = run(Caffe, nnet.ResNet(152, 512), hw.TeslaK40c)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatal("Caffe must not fit ResNet-152 at batch 512 in 12 GB")
	}
}

// TestManagedPanicsOnUnknownName checks a misspelled manager name in
// a Framework definition fails loudly instead of running a zero Config.
func TestManagedPanicsOnUnknownName(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unknown memory manager") {
			t.Errorf("recovered %v, want an unknown-manager panic", r)
		}
	}()
	managed("superneurons", "does-not-exist")(hw.TeslaK40c)
}

func TestMaxBatchOrdering(t *testing.T) {
	// Table 5's headline shape on one network: SuperNeurons trains the
	// largest batch; Caffe/Torch (keep-everything) the smallest; Torch
	// beats Caffe via in-place activations.
	d := hw.TeslaK40c
	build := nnet.ByName("ResNet50")
	caps := make(map[string]int)
	for _, f := range All {
		b, err := MaxBatch(f, build, d, 2048)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if b == 0 {
			t.Fatalf("%s cannot train ResNet-50 at batch 1", f.Name)
		}
		caps[f.Name] = b
	}
	t.Logf("ResNet-50 max batches: %v", caps)
	if !(caps["SuperNeurons"] > caps["TensorFlow"] &&
		caps["TensorFlow"] > caps["MXNet"] &&
		caps["MXNet"] > caps["Torch"] &&
		caps["Torch"] >= caps["Caffe"]) {
		t.Errorf("capacity ordering broken: %v", caps)
	}
	// Paper: SuperNeurons handles ~1.9x the second best on average; on
	// ResNet-50 specifically 384 vs 128 = 3x. Require at least 1.5x.
	if float64(caps["SuperNeurons"]) < 1.5*float64(caps["TensorFlow"]) {
		t.Errorf("SuperNeurons/second-best = %d/%d, want >= 1.5x",
			caps["SuperNeurons"], caps["TensorFlow"])
	}
}

func TestMaxDepthOrdering(t *testing.T) {
	// Table 4's shape: deepest trainable Table-4 ResNet at batch 16.
	d := hw.TeslaK40c
	depths := make(map[string]int)
	for _, f := range All {
		_, depth, err := MaxDepth(f, d, 16, 1200)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		depths[f.Name] = depth
	}
	t.Logf("max depths: %v", depths)
	if !(depths["SuperNeurons"] > depths["TensorFlow"] &&
		depths["TensorFlow"] > depths["MXNet"] &&
		depths["MXNet"] > depths["Torch"]) {
		t.Errorf("depth ordering broken: %v", depths)
	}
	// Paper: 1920 vs 592 = 3.2x deeper than the second best.
	if float64(depths["SuperNeurons"]) < 2*float64(depths["TensorFlow"]) {
		t.Errorf("SuperNeurons depth advantage too small: %v", depths)
	}
}

func TestVDNNWeakOnNonlinearNetworks(t *testing.T) {
	// §5: vDNN's eager offloading "quickly deteriorates once
	// computations are inadequate to overlap with communications" on
	// non-linear networks; SuperNeurons' cache+recompute avoid that.
	for _, net := range []*nnet.Net{nnet.ResNet(50, 32), nnet.InceptionV4(16)} {
		vdnn, err := Speed(VDNN, net, hw.TitanXP)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := Speed(SuperNeurons, net, hw.TitanXP)
		if err != nil {
			t.Fatal(err)
		}
		if vdnn <= 0 || sn <= 0 {
			t.Fatalf("%s speeds: vdnn=%v sn=%v", net.Name, vdnn, sn)
		}
		if sn < 1.2*vdnn {
			t.Errorf("SuperNeurons (%.1f) should clearly beat vDNN (%.1f) on %s", sn, vdnn, net.Name)
		}
	}
	// vDNN still buys capacity relative to keep-everything Caffe.
	caffeMax, err := MaxBatch(Caffe, nnet.ByName("ResNet50"), hw.TeslaK40c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	vdnnMax, err := MaxBatch(VDNN, nnet.ByName("ResNet50"), hw.TeslaK40c, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if vdnnMax <= caffeMax {
		t.Errorf("vDNN max batch %d must exceed Caffe's %d", vdnnMax, caffeMax)
	}
}

func TestSpeedReportsZeroOnOOM(t *testing.T) {
	s, err := Speed(Caffe, nnet.ResNet(152, 512), hw.TeslaK40c)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("speed on OOM = %v, want 0", s)
	}
}

func TestBatchSweepShape(t *testing.T) {
	rows, err := BatchSweep([]Framework{Caffe, SuperNeurons}, nnet.ByName("AlexNet"),
		hw.TitanXP, []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 {
		t.Fatalf("sweep shape %dx%d", len(rows), len(rows[0]))
	}
	for i, row := range rows {
		for j, s := range row {
			if s <= 0 {
				t.Errorf("rows[%d][%d] = %v, want > 0", i, j, s)
			}
		}
	}
}

func TestCompareSchedulers(t *testing.T) {
	cluster := sched.Cluster{Device: hw.TeslaK40c, Devices: 2}
	jobs := sched.JobsFromTrace(workload.DefaultTrace())
	results, err := CompareSchedulers(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	policies := sched.Policies()
	if len(results) != len(policies) {
		t.Fatalf("%d results for %d policies", len(results), len(policies))
	}
	byName := map[string]*sched.Result{}
	for i, r := range results {
		if r.Policy != policies[i].Name {
			t.Errorf("results[%d] is %q, want %q (input order)", i, r.Policy, policies[i].Name)
		}
		byName[r.Policy] = r
	}
	// The multi-tenant headline: memory-aware packing beats FIFO on
	// cluster utilization even when both run in parallel goroutines.
	if byName["packing"].Utilization <= byName["fifo"].Utilization {
		t.Errorf("packing utilization %.4f not above fifo %.4f",
			byName["packing"].Utilization, byName["fifo"].Utilization)
	}
}

// countingBuild wraps a registry builder and counts its calls.
func countingBuild(name string, calls *atomic.Int64) nnet.BuilderFunc {
	build := nnet.ByName(name)
	return func(b int) *nnet.Net {
		calls.Add(1)
		return build(b)
	}
}

// TestBatchSearchesBuildOnce: a MaxBatch search builds its network
// once and re-shapes it for every later probe, and a BatchSweep builds
// once for all its framework rows. The answers equal those of
// searches that build a fresh network per probe.
func TestBatchSearchesBuildOnce(t *testing.T) {
	d := hw.TeslaK40c
	for _, f := range []Framework{Caffe, TensorFlow, SuperNeurons} {
		var calls atomic.Int64
		got, err := MaxBatch(f, countingBuild("ResNet50", &calls), d, 512)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 1 {
			t.Errorf("%s: MaxBatch built the network %d times, want 1", f.Name, calls.Load())
		}
		var probes int
		fresh := prober(f, d, func(b int) *nnet.Net { probes++; return nnet.ResNet(50, b) })
		want, err := largestFitting(fresh, 512, d.UsableBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || probes < 2 {
			t.Errorf("%s: MaxBatch = %d, with a fresh build per probe %d (%d probes)", f.Name, got, want, probes)
		}
	}

	var calls atomic.Int64
	frameworks := []Framework{Caffe, SuperNeurons}
	batches := []int{32, 64, 96}
	rows, err := BatchSweep(frameworks, countingBuild("AlexNet", &calls), d, batches)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("BatchSweep built the network %d times, want 1", calls.Load())
	}
	for i, f := range frameworks {
		for j, b := range batches {
			want, err := Speed(f, nnet.AlexNet(b), d)
			if err != nil {
				t.Fatal(err)
			}
			if rows[i][j] != want {
				t.Errorf("%s at %d: BatchSweep %v, a fresh build %v", f.Name, b, rows[i][j], want)
			}
		}
	}
}
