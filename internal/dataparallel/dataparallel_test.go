package dataparallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
)

func cfgFor(k int, overlap bool) Config {
	return Config{
		Replicas:     k,
		PerGPU:       core.SuperNeurons(hw.TeslaK40c),
		Interconnect: hw.PCIeP2P,
		OverlapComm:  overlap,
	}
}

func TestSingleReplicaHasNoComm(t *testing.T) {
	r, err := Run(nnet.AlexNet, 64, cfgFor(1, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.AllReduceTime != 0 || r.ExposedComm != 0 {
		t.Error("one replica must not communicate")
	}
	if r.ScalingEfficiency < 0.999 || r.ScalingEfficiency > 1.001 {
		t.Errorf("single-replica efficiency = %v, want 1", r.ScalingEfficiency)
	}
}

func TestRingAllReduceFormula(t *testing.T) {
	link := hw.LinkSpec{Name: "t", BytesPerSec: 1e9, Latency: 0}
	// 8 GPUs, 8e9 bytes: 2*7 steps of 1e9 bytes at 1 GB/s = 14 s.
	got := RingAllReduceTime(link, 8e9, 8)
	if got.Seconds() < 13.99 || got.Seconds() > 14.01 {
		t.Errorf("ring time = %v, want 14s", got)
	}
	if RingAllReduceTime(link, 1e9, 1) != 0 {
		t.Error("k=1 must cost nothing")
	}
}

func TestThroughputScalesSublinearly(t *testing.T) {
	counts := []int{1, 2, 4, 8}
	rs := make([]*Result, len(counts))
	for i, k := range counts {
		r, err := Run(nnet.ByName("ResNet50"), 32, cfgFor(k, false))
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].GlobalThroughput <= rs[i-1].GlobalThroughput {
			t.Errorf("throughput must grow with replicas: %v", rs[i].GlobalThroughput)
		}
		if rs[i].ScalingEfficiency >= rs[i-1].ScalingEfficiency {
			t.Errorf("efficiency must fall with replicas (gradient exchange): %v then %v",
				rs[i-1].ScalingEfficiency, rs[i].ScalingEfficiency)
		}
	}
	if rs[3].ScalingEfficiency <= 0.3 || rs[3].ScalingEfficiency >= 1 {
		t.Errorf("8-GPU efficiency = %.2f, expected (0.3, 1)", rs[3].ScalingEfficiency)
	}
}

func TestOverlapHidesCommunication(t *testing.T) {
	plain, err := Run(nnet.ByName("ResNet50"), 32, cfgFor(4, false))
	if err != nil {
		t.Fatal(err)
	}
	overlapped, err := Run(nnet.ByName("ResNet50"), 32, cfgFor(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.ExposedComm >= plain.ExposedComm {
		t.Errorf("overlap must hide communication: %v vs %v",
			overlapped.ExposedComm, plain.ExposedComm)
	}
	if overlapped.GlobalThroughput <= plain.GlobalThroughput {
		t.Error("overlap must improve throughput")
	}
}

func TestFasterInterconnectScalesBetter(t *testing.T) {
	slow := cfgFor(8, false)
	slow.Interconnect = hw.GPUDirectRDMA
	fast := cfgFor(8, false)
	fast.Interconnect = hw.PCIeP2P
	rSlow, err := Run(nnet.VGG16, 16, slow)
	if err != nil {
		t.Fatal(err)
	}
	rFast, err := Run(nnet.VGG16, 16, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rFast.ScalingEfficiency <= rSlow.ScalingEfficiency {
		t.Errorf("faster link must scale better: %.3f vs %.3f",
			rFast.ScalingEfficiency, rSlow.ScalingEfficiency)
	}
	// A zero Interconnect defaults to PCIe P2P.
	unset := cfgFor(8, false)
	unset.Interconnect = hw.LinkSpec{}
	rUnset, err := Run(nnet.VGG16, 16, unset)
	if err != nil {
		t.Fatal(err)
	}
	if rUnset.AllReduceTime != rFast.AllReduceTime {
		t.Errorf("zero interconnect priced %v, want PCIe P2P's %v", rUnset.AllReduceTime, rFast.AllReduceTime)
	}
}

func TestInvalidReplicaCount(t *testing.T) {
	if _, err := Run(nnet.AlexNet, 8, cfgFor(0, false)); err == nil {
		t.Fatal("zero replicas must error")
	}
}
