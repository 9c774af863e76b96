package liveness

import (
	"testing"

	"repro/internal/nnet"
	"repro/internal/program"
)

const mib = float64(1 << 20)

func TestAnalyzeMatchesReference(t *testing.T) {
	// The fast single-sweep analysis must agree with the paper's O(N²)
	// subsequent-layer scan on every architecture.
	for _, e := range nnet.Registry {
		if e.Name == "InceptionV4" || e.Name == "DenseNet121" {
			continue // Reference is quadratic; keep the test fast
		}
		p := program.Build(e.Build(2))
		fast, ref := Analyze(p), Reference(p)
		for id := range fast.LastUse {
			if fast.LastUse[id] != ref.LastUse[id] {
				t.Errorf("%s: tensor %d last use %d vs reference %d",
					e.Name, id, fast.LastUse[id], ref.LastUse[id])
			}
			if fast.FirstUse[id] != ref.FirstUse[id] {
				t.Errorf("%s: tensor %d first use %d vs reference %d",
					e.Name, id, fast.FirstUse[id], ref.FirstUse[id])
			}
		}
	}
}

func TestEveryTensorFreedExactlyOnce(t *testing.T) {
	p := program.Build(nnet.ResNet(50, 2))
	r := Analyze(p)
	freed := make(map[int]int)
	for _, ids := range r.FreeAfter {
		for _, id := range ids {
			freed[id]++
		}
	}
	for id := 0; id < p.Reg.Len(); id++ {
		if freed[id] != 1 {
			t.Errorf("tensor %d freed %d times", id, freed[id])
		}
	}
}

func TestLiveSetMonotonicity(t *testing.T) {
	// A tensor is live exactly on the contiguous interval
	// [FirstUse, LastUse]: LiveAt must reflect that.
	p := program.Build(nnet.AlexNet(2))
	r := Analyze(p)
	for id := 0; id < p.Reg.Len(); id++ {
		for si := 0; si < len(p.Steps); si++ {
			live := false
			for _, l := range r.LiveAt(si) {
				if l == id {
					live = true
				}
			}
			want := si >= r.FirstUse[id] && si <= r.LastUse[id]
			if live != want {
				t.Fatalf("tensor %d at step %d: live=%v want %v", id, si, live, want)
			}
		}
	}
}

func TestPaperLivenessPeak(t *testing.T) {
	// Fig. 10a: Liveness Analysis reduces AlexNet b=200 to a peak of
	// 1489.355 MB at step 32 (backward POOL5; our program adds one
	// leading data step, so indices match because the data layer is
	// counted in both). The analytical live-bytes peak equals what the
	// executor later measures.
	p := program.Build(nnet.AlexNet(200))
	r := Analyze(p)
	// Exclude the data tensor: the runtime releases the host-backed
	// input after its forward reads, which the paper's accounting also
	// omits (its 23-layer AlexNet has no data layer).
	dataID := p.Out[p.Net.Input.ID].ID
	var peak int64
	var peakStep int
	for si := range p.Steps {
		var sum int64
		for _, id := range r.LiveAt(si) {
			if id == dataID && si > p.FwdStep[p.Net.Nodes[1].ID] {
				continue
			}
			sum += p.Reg.Get(id).Bytes()
		}
		if sum > peak {
			peak, peakStep = sum, si
		}
	}
	got := float64(peak) / mib
	if got < 1489.3 || got > 1489.4 {
		t.Errorf("liveness peak = %.3f MiB, paper says 1489.355", got)
	}
	if p.Steps[peakStep].Node.Name() != "pool5" {
		t.Errorf("peak at %s, paper says backward POOL5", p.Steps[peakStep].Label())
	}
}

func TestLivenessSavesAboutHalf(t *testing.T) {
	// §3.2: Liveness Analysis saves up to 50% from the baseline
	// Σ l_i^f + Σ l_i^b; on AlexNet the paper measured 31.9%.
	p := program.Build(nnet.AlexNet(200))
	r := Analyze(p)
	peak, _ := r.PeakLive(p)
	saving := 1 - float64(peak)/float64(p.BaselineBytes())
	if saving < 0.25 || saving > 0.55 {
		t.Errorf("liveness saving = %.1f%%, expected 25-55%%", 100*saving)
	}
}

func TestFreeAfterNeverPrecedesUse(t *testing.T) {
	p := program.Build(nnet.VGG16(2))
	r := Analyze(p)
	for si, ids := range r.FreeAfter {
		for _, id := range ids {
			if r.FirstUse[id] > si {
				t.Errorf("tensor %d freed at %d before first use %d", id, si, r.FirstUse[id])
			}
		}
	}
}
