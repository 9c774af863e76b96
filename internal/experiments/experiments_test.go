package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestTable1ShapeAndPaperColumns(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 9 { // 3 networks x 3 strategies
		t.Fatalf("rows = %d, want 9", len(tb.Rows))
	}
	// The analytic columns must equal the paper's counts exactly.
	for _, r := range tb.Rows {
		if r[2] != r[3] {
			t.Errorf("%s/%s: analytic %s != paper %s", r[0], r[1], r[2], r[3])
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if !strings.HasSuffix(r[3], "x") {
			t.Errorf("%s: speedup cell %q", r[0], r[3])
		}
		if r[3] < "1" {
			t.Errorf("%s: pool must not be slower than cuda: %q", r[0], r[3])
		}
	}
}

func TestTable3TrafficShape(t *testing.T) {
	tb := Table3()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// No-cache traffic must grow with batch; cache column must be ~0.
	prev := ""
	for _, r := range tb.Rows {
		if prev != "" && r[1] <= prev && len(r[1]) <= len(prev) {
			t.Errorf("no-cache traffic not increasing: %s then %s", prev, r[1])
		}
		prev = r[1]
		if r[2] != "0.00" {
			t.Errorf("batch %s: cache traffic %s, want 0.00", r[0], r[2])
		}
	}
}

func TestFig8Breakdown(t *testing.T) {
	tt, mt := Fig8()
	if len(tt.Rows) != 7 || len(mt.Rows) != 7 {
		t.Fatalf("rows = %d/%d, want 7/7", len(tt.Rows), len(mt.Rows))
	}
	// Fig 8's premise: CONV dominates time on every network.
	for _, r := range tt.Rows {
		conv := r[1]
		for i := 2; i < len(r); i++ {
			if len(r[i]) > len(conv) || (len(r[i]) == len(conv) && r[i] > conv) {
				t.Errorf("%s: %s%% (%s) exceeds CONV %s%%", r[0], tt.Header[i], r[i], conv)
			}
		}
	}
}

func TestFig10Rendering(t *testing.T) {
	runs := Fig10Runs()
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	out := Fig10(runs)
	for _, want := range []string{"baseline", "liveness", "+offload", "+recompute", "1489.355", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 output missing %q", want)
		}
	}
	// The measured liveness peak equals the paper's number.
	if !strings.Contains(out, "1489.36") && !strings.Contains(out, "1489.35") {
		t.Error("fig10 must report the 1489.355 MiB liveness peak")
	}
}

func TestFig12Rendering(t *testing.T) {
	out := Fig12()
	for _, want := range []string{"batch=100", "batch=300", "conv1 fwd", "conv1 bwd", "img/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 output missing %q", want)
		}
	}
}

func TestFig2SpeedupsInBand(t *testing.T) {
	tb := Fig2()
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		var x float64
		if _, err := fmt.Sscanf(r[4], "%fx", &x); err != nil {
			t.Fatalf("%s: bad speedup cell %q", r[0], r[4])
		}
		if x < 1.1 || x > 2.6 {
			t.Errorf("%s: workspace speedup %.2f outside the paper's 1.2-2.5 band", r[0], x)
		}
	}
}

func TestFig11CacheAlwaysWins(t *testing.T) {
	tb := Fig11()
	for _, r := range tb.Rows {
		var norm float64
		if _, err := fmt.Sscanf(r[4], "%f", &norm); err != nil {
			t.Fatalf("bad cell %q", r[4])
		}
		if norm > 1.0 {
			t.Errorf("%s: eager faster than cached (%.2f)", r[0], norm)
		}
		if norm < 0.5 {
			t.Errorf("%s: loss without cache too large (%.2f); paper caps at ~0.67", r[0], norm)
		}
	}
}

func TestTable4OrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search")
	}
	tb := Table4()
	depth := map[string]int{}
	for _, r := range tb.Rows {
		fmt.Sscanf(r[1], "%d", new(int))
		var d int
		fmt.Sscanf(r[1], "%d", &d)
		depth[r[0]] = d
	}
	if !(depth["SuperNeurons"] > depth["TensorFlow"] &&
		depth["TensorFlow"] > depth["MXNet"] &&
		depth["MXNet"] > depth["Torch"] &&
		depth["Torch"] > depth["Caffe"]) {
		t.Errorf("depth ordering broken: %v", depth)
	}
	if depth["SuperNeurons"] < 1920 {
		t.Errorf("SuperNeurons depth %d below the paper's 1920", depth["SuperNeurons"])
	}
}

func TestTable5AndFig13Consistency(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search")
	}
	data := Table5Data()
	for net, row := range data {
		if !(row["SuperNeurons"] >= row["TensorFlow"] &&
			row["TensorFlow"] > row["MXNet"] &&
			row["MXNet"] > row["Torch"] &&
			row["Torch"] >= row["Caffe"]) {
			t.Errorf("%s: batch ordering broken: %v", net, row)
		}
	}
	t5 := Table5(data)
	if len(t5.Rows) != 6 {
		t.Errorf("table5 rows = %d", len(t5.Rows))
	}
	f13 := Fig13(data)
	if len(f13.Rows) != 6 {
		t.Errorf("fig13 rows = %d", len(f13.Rows))
	}
	// SN/Caffe ratio cell must exceed 1x everywhere.
	for _, r := range f13.Rows {
		var x float64
		if _, err := fmt.Sscanf(r[6], "%fx", &x); err != nil || x <= 1 {
			t.Errorf("%s: SN/Caffe = %q", r[0], r[6])
		}
	}
}

func TestFig14SuperNeuronsLeadsOrSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep")
	}
	out := Fig14()
	for _, net := range []string{"AlexNet", "ResNet50", "VGG16", "ResNet101", "InceptionV4", "ResNet152"} {
		if !strings.Contains(out, "Fig 14 ("+net+")") {
			t.Errorf("missing sweep for %s", net)
		}
	}
	if !strings.Contains(out, "SuperNeurons") || !strings.Contains(out, "OOM") {
		t.Error("sweep must include SuperNeurons and OOM markers for weaker policies")
	}
}

// The shared capacity-search loops behind Tables 4 and 5 and
// `snpaper sweep`: rows land in policy.All order, and an unknown
// network fails before any search runs.
func TestCapacitySearchLoops(t *testing.T) {
	depths, err := MaxDepths(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := MaxBatches([]string{"AlexNet", "ResNet50"}, map[string]int{"AlexNet": 8, "ResNet50": 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(depths) != 5 || len(batches) != 2 || len(batches[0]) != 5 {
		t.Fatalf("shape: %d depths, %d batch rows", len(depths), len(batches))
	}
	for j := range depths {
		if depths[j].N3 != 2 || batches[0][j] != 8 || batches[1][j] != 4 {
			t.Errorf("framework %d: depth %+v, batches %d/%d; every search should reach its bound",
				j, depths[j], batches[0][j], batches[1][j])
		}
	}
	if _, err := MaxBatches([]string{"LeNet"}, nil); err == nil || !strings.Contains(err.Error(), "LeNet") {
		t.Errorf("unknown network: err = %v", err)
	}
}
