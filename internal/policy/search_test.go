package policy

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/par"
	"repro/internal/workload"
)

// searchCell is one Table 4 or Table 5 capacity search: the answer and
// the number of fits probes (each a full core.Run) the search spent
// before MaxBatch and MaxDepth shared largestFitting.
type searchCell struct {
	table, fw, net string
	answer, before int
}

// tableCells lists every cell sntables searches: Table 4 is MaxDepth at
// batch 16 up to n3 = 2600, Table 5 is MaxBatch up to the per-network
// search limit.
var tableCells = []searchCell{
	{"table4", "Caffe", "", 13, 8},
	{"table4", "MXNet", "", 145, 16},
	{"table4", "Torch", "", 34, 12},
	{"table4", "TensorFlow", "", 278, 18},
	{"table4", "SuperNeurons", "", 1316, 22},
	{"table5", "Caffe", "AlexNet", 846, 21},
	{"table5", "MXNet", "AlexNet", 1836, 23},
	{"table5", "Torch", "AlexNet", 1045, 23},
	{"table5", "TensorFlow", "AlexNet", 2263, 25},
	{"table5", "SuperNeurons", "AlexNet", 2263, 25},
	{"table5", "Caffe", "InceptionV4", 27, 11},
	{"table5", "MXNet", "InceptionV4", 124, 15},
	{"table5", "Torch", "InceptionV4", 31, 7},
	{"table5", "TensorFlow", "InceptionV4", 305, 19},
	{"table5", "SuperNeurons", "InceptionV4", 687, 21},
	{"table5", "Caffe", "ResNet101", 35, 13},
	{"table5", "MXNet", "ResNet101", 92, 15},
	{"table5", "Torch", "ResNet101", 43, 13},
	{"table5", "TensorFlow", "ResNet101", 164, 17},
	{"table5", "SuperNeurons", "ResNet101", 995, 21},
	{"table5", "Caffe", "ResNet152", 24, 11},
	{"table5", "MXNet", "ResNet152", 62, 13},
	{"table5", "Torch", "ResNet152", 29, 11},
	{"table5", "TensorFlow", "ResNet152", 111, 15},
	{"table5", "SuperNeurons", "ResNet152", 985, 21},
	{"table5", "Caffe", "ResNet50", 55, 13},
	{"table5", "MXNet", "ResNet50", 148, 17},
	{"table5", "Torch", "ResNet50", 66, 15},
	{"table5", "TensorFlow", "ResNet50", 266, 19},
	{"table5", "SuperNeurons", "ResNet50", 1008, 21},
	{"table5", "Caffe", "VGG16", 63, 8},
	{"table5", "MXNet", "VGG16", 173, 17},
	{"table5", "Torch", "VGG16", 92, 15},
	{"table5", "TensorFlow", "VGG16", 249, 17},
	{"table5", "SuperNeurons", "VGG16", 291, 19},
}

// TestTableSearchProbes counts the full runs every Table 4 and Table 5
// capacity search spends and compares them with the count before the
// two searches were merged. The answers must not move, and neither
// table may need more runs in total.
//
// The old MaxBatch probed the top of the bracket, P-1, after the
// exponential probe at P failed. That extra run paid off only when the
// capacity was exactly P-1 = 2^k-1, and cost one run everywhere else.
// Those cells (Table 5's Caffe/VGG16 at 63 and Torch/InceptionV4 at 31)
// are the only ones allowed more runs than before; every other cell
// must need no more.
func TestTableSearchProbes(t *testing.T) {
	type got struct{ answer, probes int }
	res := par.Map(tableCells, 0, func(c searchCell) got {
		f, _ := ByName(c.fw)
		var fits func(int) (bool, error)
		hi := 2600
		if c.table == "table4" {
			fits = func(n3 int) (bool, error) { return Trainable(f, nnet.ResNetTable4(16, n3), hw.TeslaK40c) }
		} else {
			build := nnet.ByName(c.net)
			fits = func(b int) (bool, error) { return Trainable(f, build(b), hw.TeslaK40c) }
			hi = workload.Table5SearchLimit[c.net]
		}
		probes := 0
		n, err := largestFitting(func(n int) (bool, error) { probes++; return fits(n) }, hi)
		if err != nil {
			t.Errorf("%s %s %s: %v", c.table, c.fw, c.net, err)
		}
		return got{n, probes}
	})
	total := map[string][2]int{}
	for i, c := range tableCells {
		r := res[i]
		t.Logf("%s %-12s %-11s answer %4d  probes %2d (before %2d)", c.table, c.fw, c.net, r.answer, r.probes, c.before)
		if r.answer != c.answer {
			t.Errorf("%s %s %s: answer %d, want %d", c.table, c.fw, c.net, r.answer, c.answer)
		}
		topOfBracket := c.answer&(c.answer+1) == 0
		if r.probes > c.before && !topOfBracket {
			t.Errorf("%s %s %s: %d probes, more than the %d before", c.table, c.fw, c.net, r.probes, c.before)
		}
		tt := total[c.table]
		total[c.table] = [2]int{tt[0] + r.probes, tt[1] + c.before}
	}
	for _, table := range []string{"table4", "table5"} {
		tt := total[table]
		t.Logf("%s: %d probes (before %d)", table, tt[0], tt[1])
		if tt[0] > tt[1] {
			t.Errorf("%s: %d probes in total, more than the %d before", table, tt[0], tt[1])
		}
	}
}
