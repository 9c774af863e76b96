// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§4). Each benchmark regenerates the experiment
// on the simulated substrate and logs the rows/series the paper
// reports, next to the paper's published numbers; `go test -bench=.`
// therefore reproduces the entire evaluation. `snpaper tables` prints
// the same tables as one transcript.
package superneurons

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkTable1RecomputeStrategies regenerates Table 1: extra
// recomputations and peak memory of the speed-centric, memory-centric
// and cost-aware strategies on AlexNet/ResNet-50/ResNet-101.
func BenchmarkTable1RecomputeStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTable2MemoryPool regenerates Table 2: img/s under the
// native cudaMalloc/cudaFree cost model vs the heap-based GPU memory
// pool.
func BenchmarkTable2MemoryPool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTable3TensorCacheTraffic regenerates Table 3: PCIe traffic
// with and without the LRU Tensor Cache as AlexNet's batch grows.
func BenchmarkTable3TensorCacheTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTable4GoingDeeper regenerates Table 4: the deepest
// trainable ResNet per framework policy at batch 16 on 12 GB.
func BenchmarkTable4GoingDeeper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table4()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTable5GoingWider regenerates Table 5: the largest trainable
// batch per framework per network on 12 GB, and Fig. 13's memory-cost
// translation of the same data.
func BenchmarkTable5GoingWider(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data := experiments.Table5Data()
		if i == 0 {
			b.Log("\n" + experiments.Table5(data).String())
			b.Log("\n" + experiments.Fig13(data).String())
		}
	}
}

// BenchmarkFig2ConvWorkspace regenerates Fig. 2: per-network memory
// with/without convolution workspaces and the speedup they buy.
func BenchmarkFig2ConvWorkspace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkFig8Breakdown regenerates Fig. 8: execution-time and memory
// breakdowns by layer type across the seven networks.
func BenchmarkFig8Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tt, mt := experiments.Fig8()
		if i == 0 {
			b.Log("\n" + tt.String() + "\n" + mt.String())
		}
	}
}

// BenchmarkFig10StepwiseMemory regenerates Fig. 10: AlexNet b=200
// step-wise memory under baseline, liveness, +offload, +recompute.
func BenchmarkFig10StepwiseMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiments.Fig10Runs()
		if i == 0 {
			b.Log("\n" + experiments.Fig10(runs))
		}
	}
}

// BenchmarkFig11TensorCacheSpeed regenerates Fig. 11: normalized
// training speed with and without the Tensor Cache.
func BenchmarkFig11TensorCacheSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig11()
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkFig12DynamicWorkspace regenerates Fig. 12: assigned vs
// max-speed convolution workspaces under different batch and pool
// sizes, with the resulting throughput.
func BenchmarkFig12DynamicWorkspace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.Fig12()
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}

// BenchmarkFig14EndToEnd regenerates Fig. 14: img/s vs batch for every
// framework policy across the six networks on the TITAN Xp.
func BenchmarkFig14EndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.Fig14()
		if i == 0 {
			b.Log("\n" + s)
		}
	}
}
