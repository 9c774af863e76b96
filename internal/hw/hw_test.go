package hw

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTransferTime(t *testing.T) {
	l := LinkSpec{Name: "test", BytesPerSec: 1e9, Latency: 100}
	// 1e9 bytes at 1e9 B/s = 1s plus latency.
	if got := l.TransferTime(1e9); got != sim.Second+100 {
		t.Errorf("TransferTime(1e9) = %v, want 1s+100ns", got)
	}
	if got := l.TransferTime(0); got != 100 {
		t.Errorf("TransferTime(0) = %v, want latency only", got)
	}
}

func TestPinnedFasterThanPageable(t *testing.T) {
	const n = 256 * MiB
	if PCIePinned.TransferTime(n) >= PCIePageable.TransferTime(n) {
		t.Fatal("pinned transfers must be faster than pageable")
	}
	// The paper says pageable loses at least 50% of speed.
	ratio := float64(PCIePageable.TransferTime(n)) / float64(PCIePinned.TransferTime(n))
	if ratio < 1.9 {
		t.Errorf("pageable/pinned time ratio = %.2f, want ~2x", ratio)
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	d := DeviceSpec{
		Name: "unit", PeakFLOPS: 1e12, MemBWBytes: 1e11,
		KernelLaunch: 0,
	}
	// Compute-bound: 1e12 FLOPs at 1e12 FLOP/s = 1s; memory side is 1e9/1e11 = 10ms.
	if got := d.KernelTime(1e12, 1e9, 1, 1); got != sim.Second {
		t.Errorf("compute-bound kernel = %v, want 1s", got)
	}
	// Memory-bound: tiny FLOPs, 1e11 bytes at 1e11 B/s = 1s.
	if got := d.KernelTime(1, 1e11, 1, 1); got != sim.Second {
		t.Errorf("memory-bound kernel = %v, want 1s", got)
	}
}

func TestKernelTimeEfficiencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KernelTime with zero efficiency must panic")
		}
	}()
	TeslaK40c.KernelTime(1, 1, 0, 1)
}

func TestDeviceProfilesSane(t *testing.T) {
	for _, d := range []DeviceSpec{TeslaK40c, TitanXP} {
		if d.UsableBytes <= 0 || d.UsableBytes > d.DRAMBytes {
			t.Errorf("%s: usable bytes %d out of range", d.Name, d.UsableBytes)
		}
		if d.PeakFLOPS <= 0 || d.MemBWBytes <= 0 {
			t.Errorf("%s: non-positive peak specs", d.Name)
		}
		if d.CudaMalloc <= d.PoolOp {
			t.Errorf("%s: cudaMalloc must cost more than a pool op", d.Name)
		}
		if d.CudaFree < d.CudaMalloc {
			t.Errorf("%s: cudaFree (synchronizing) should cost at least cudaMalloc", d.Name)
		}
	}
	if TitanXP.PeakFLOPS <= TeslaK40c.PeakFLOPS {
		t.Error("TITAN Xp must be faster than K40c")
	}
}

// Property: kernel time is monotone in both FLOPs and bytes.
func TestKernelTimeMonotoneProperty(t *testing.T) {
	d := TeslaK40c
	f := func(f1, f2 uint32, b1, b2 uint32) bool {
		fa, fb := float64(f1), float64(f1)+float64(f2)
		ba, bb := int64(b1), int64(b1)+int64(b2)
		return d.KernelTime(fa, ba, 0.5, 0.5) <= d.KernelTime(fb, bb, 0.5, 0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transfer time is additive-superadditive: moving n bytes once
// costs no more than moving it in two chunks (latency is paid twice).
func TestTransferSplitProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		n1, n2 := int64(a), int64(b)
		whole := PCIePinned.TransferTime(n1 + n2)
		split := PCIePinned.TransferTime(n1) + PCIePinned.TransferTime(n2)
		return whole <= split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceByName(t *testing.T) {
	for name, want := range map[string]DeviceSpec{"k40c": TeslaK40c, "TitanXP": TitanXP} {
		got, err := DeviceByName(name)
		if err != nil || got.Name != want.Name {
			t.Errorf("DeviceByName(%q) = %q, %v; want %q", name, got.Name, err, want.Name)
		}
	}
	_, err := DeviceByName("v100")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, v := range []string{"k40c", "titanxp"} {
		if !strings.Contains(err.Error(), v) {
			t.Errorf("error %q does not name accepted device %q", err, v)
		}
	}
}
