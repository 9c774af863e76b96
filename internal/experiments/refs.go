// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) on the simulated substrate and renders them
// side by side with the paper's published numbers. The benchmark
// harness (bench_test.go at the module root) and `snpaper tables`
// both drive these functions, so the whole evaluation is reproducible
// with one command.
package experiments

// Paper-published values, transcribed from the PPoPP'18 text, used for
// the "paper" columns of every reproduction.

// paperTable1 holds (extra recomputations, peak MB) per strategy.
var paperTable1 = map[string]struct {
	SpeedExtra, MemExtra, CAExtra int
	SpeedPeak, MemPeak, CAPeak    float64
}{
	"AlexNet":   {14, 23, 17, 993.018, 886.23, 886.23},
	"ResNet50":  {84, 118, 85, 455.125, 401, 401},
	"ResNet101": {169, 237, 170, 455.125, 401, 401},
}

// paperTable2 holds img/s under cudaMalloc/cudaFree vs the GPU memory
// pool on the K40 (AlexNet batch 128, rest 16).
var paperTable2 = map[string]struct{ CUDA, Pool float64 }{
	"AlexNet":     {359.4, 401.6},
	"VGG16":       {12.1, 14.4},
	"InceptionV4": {6.77, 10.0},
	"ResNet50":    {21.5, 32.9},
	"ResNet101":   {11.3, 18.95},
	"ResNet152":   {7.46, 13.2},
}

// paperTable3 holds communications in GB for AlexNet batch sweeps.
var paperTable3 = struct {
	Batches            []int
	NoCache, WithCache []float64
}{
	Batches:   []int{256, 384, 512, 640, 896, 1024},
	NoCache:   []float64{2.56, 3.72, 4.88, 6.03, 8.35, 9.50},
	WithCache: []float64{0, 0, 0, 0, 0, 0.88},
}

// paperTable4 holds the deepest trainable ResNet per framework (12 GB
// K40, batch 16).
var paperTable4 = map[string]int{
	"Caffe": 148, "MXNet": 480, "Torch": 152, "TensorFlow": 592, "SuperNeurons": 1920,
}

// paperTable4SecondBest is the paper's second-deepest framework in
// Table 4, the divisor of the reproduction's ratio column.
const paperTable4SecondBest = "TensorFlow"

// paperTable5 holds the largest trainable batch per framework per
// network (12 GB K40); 0 marks the paper's N/A entries.
var paperTable5 = map[string]map[string]int{
	"AlexNet":     {"Caffe": 768, "MXNet": 768, "Torch": 1024, "TensorFlow": 1408, "SuperNeurons": 1792},
	"VGG16":       {"Caffe": 48, "MXNet": 64, "Torch": 48, "TensorFlow": 80, "SuperNeurons": 224},
	"InceptionV4": {"Caffe": 16, "MXNet": 0, "Torch": 0, "TensorFlow": 64, "SuperNeurons": 240},
	"ResNet50":    {"Caffe": 24, "MXNet": 80, "Torch": 32, "TensorFlow": 128, "SuperNeurons": 384},
	"ResNet101":   {"Caffe": 16, "MXNet": 48, "Torch": 16, "TensorFlow": 80, "SuperNeurons": 256},
	"ResNet152":   {"Caffe": 16, "MXNet": 32, "Torch": 16, "TensorFlow": 48, "SuperNeurons": 176},
}

// paperFig10 holds the step-wise peaks of the AlexNet b=200 case study.
var paperFig10 = struct {
	Baseline, Liveness, Offload, Recompute   float64
	LivenessStep, OffloadStep, RecomputeStep string
}{
	Baseline: 2189.437, Liveness: 1489.355, Offload: 1132.155, Recompute: 886.385,
	LivenessStep: "pool5 bwd", OffloadStep: "pool2 bwd", RecomputeStep: "lrn1 bwd",
}

// paperFig12 holds AlexNet's img/s under a 3 GB and a 5 GB pool with
// dynamic convolution workspaces (Fig 12c/d).
var paperFig12 = struct{ Pool3GB, Pool5GB float64 }{203, 240}

// table2Batch returns the Table 2 batch size convention (AlexNet 128,
// rest 16); Fig 11 uses AlexNet 128 and 32 elsewhere, Fig 2 uses
// AlexNet 200 and 32 elsewhere.
func table2Batch(net string) int {
	if net == "AlexNet" {
		return 128
	}
	return 16
}

func fig2Batch(net string) int {
	if net == "AlexNet" {
		return 200
	}
	return 32
}

func fig11Batch(net string) int {
	if net == "AlexNet" {
		return 128
	}
	return 32
}
