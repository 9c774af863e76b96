// Package workload defines the training workloads of the evaluation:
// the batch-size sweeps of the paper's figures, the bundled
// dynamic-batch schedules, and the multi-tenant job traces (gang,
// co-tenant and fault) with their parser, formatter and durable record
// framing. The memory scheduler's decisions depend only on tensor
// geometry and dependencies, so a workload names networks and batch
// sizes and carries no pixel data.
package workload

// Fig14Batches lists the batch sweeps of the paper's Fig. 14 per
// network (its x-axes).
var Fig14Batches = map[string][]int{
	"AlexNet":     {128, 256, 512, 768, 1024, 1280, 1408},
	"ResNet50":    {16, 32, 64, 96, 128, 160, 192},
	"VGG16":       {16, 32, 48, 64, 96, 128, 160},
	"ResNet101":   {16, 32, 48, 64, 80, 96, 112},
	"InceptionV4": {8, 16, 24, 32, 48, 64, 80},
	"ResNet152":   {8, 16, 24, 32, 48, 64, 80},
}

// Table5SearchLimit bounds the max-batch search per network (safely
// above any framework's capacity on a 12 GB card).
var Table5SearchLimit = map[string]int{
	"AlexNet":     8192,
	"VGG16":       1024,
	"InceptionV4": 1024,
	"ResNet50":    2048,
	"ResNet101":   1024,
	"ResNet152":   1024,
}
