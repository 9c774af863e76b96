package nnet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// fig6Net reproduces the nested-fan network of the paper's Fig. 6:
// a→(b | c→(f | g)→? ) — concretely: a fans to b,c,d; b,c,d join at e;
// e fans to f,g,h; f,g,h join at i; i→j. We build it with
// shape-preserving layers so joins are well-formed.
func fig6Net(t *testing.T) (*Net, map[string]*Node) {
	t.Helper()
	s := tensor.Shape{N: 1, C: 4, H: 8, W: 8}
	b, a := NewBuilder("fig6", s)
	nodes := map[string]*Node{"a": a}
	add := func(name string, prev ...*Node) *Node {
		var n *Node
		if len(prev) == 1 {
			n = b.Act(prev[0], name)
		} else {
			n = b.Eltwise(name, prev...)
		}
		nodes[name] = n
		return n
	}
	nb := add("b", a)
	nc := add("c", a)
	nd := add("d", a)
	ne := add("e", nb, nc, nd)
	nf := add("f", ne)
	ng := add("g", ne)
	nh := add("h", ne)
	ni := add("i", nf, ng, nh)
	add("j", ni)
	return b.Finish(), nodes
}

func TestRouteLinear(t *testing.T) {
	n := AlexNet(2)
	route := n.Route()
	if len(route) != len(n.Nodes) {
		t.Fatalf("route length %d != nodes %d", len(route), len(n.Nodes))
	}
	for i, nd := range route {
		if nd.ID != i {
			t.Fatalf("linear net must execute in creation order; step %d got node %d", i, nd.ID)
		}
	}
}

func TestRouteJoinWaitsForAllPredecessors(t *testing.T) {
	net, nodes := fig6Net(t)
	route := net.Route()
	pos := make(map[string]int)
	for i, nd := range route {
		pos[nd.Name()] = i
	}
	// Alg.1: e must run after b, c and d; i after f, g and h.
	for _, pre := range []string{"b", "c", "d"} {
		if pos[pre] > pos["e"] {
			t.Errorf("join e ran before predecessor %s", pre)
		}
	}
	for _, pre := range []string{"f", "g", "h"} {
		if pos[pre] > pos["i"] {
			t.Errorf("join i ran before predecessor %s", pre)
		}
	}
	if pos["j"] != len(route)-1 {
		t.Error("j must be last")
	}
	_ = nodes
}

func TestRouteIsRepeatable(t *testing.T) {
	net, _ := fig6Net(t)
	r1 := net.Route()
	r2 := net.Route() // counters must have been reset
	if len(r1) != len(r2) {
		t.Fatal("second route has different length")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("route not deterministic at step %d", i)
		}
	}
}

func TestBackwardRouteIsReverse(t *testing.T) {
	net, _ := fig6Net(t)
	fwd, bwd := net.Route(), net.BackwardRoute()
	for i := range fwd {
		if fwd[i] != bwd[len(bwd)-1-i] {
			t.Fatalf("backward route is not the reverse at %d", i)
		}
	}
}

func TestRouteTopologicalProperty(t *testing.T) {
	// Every edge must go forward in route order, on every architecture.
	for _, e := range Registry {
		net := e.Build(1)
		pos := make(map[*Node]int, len(net.Nodes))
		for i, nd := range net.Route() {
			pos[nd] = i
		}
		for _, nd := range net.Nodes {
			for _, nx := range nd.Next {
				if pos[nx] <= pos[nd] {
					t.Errorf("%s: edge %s->%s violates topological order", e.Name, nd.Name(), nx.Name())
				}
			}
		}
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	s := tensor.Shape{N: 1, C: 1, H: 2, W: 2}
	b, a := NewBuilder("broken", s)
	n := b.Act(a, "x")
	// Sever the Next edge to create an asymmetric graph.
	a.Next = nil
	bad := &Net{Name: "broken", Nodes: b.net.Nodes, Input: a}
	_ = n
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate must reject asymmetric edges")
	}
}

func TestAlexNetStructure(t *testing.T) {
	n := AlexNet(200)
	// Paper footnote 3: 23 layers; we add the data layer.
	if got := n.BasicLayers(); got != 24 {
		t.Errorf("AlexNet layers = %d, want 24 (23 + data)", got)
	}
	if n.CountType(layers.Conv) != 5 || n.CountType(layers.FC) != 3 ||
		n.CountType(layers.LRN) != 2 || n.CountType(layers.Pool) != 3 {
		t.Error("AlexNet layer-type census wrong")
	}
	// Fig. 10 anchors: conv outputs at batch 200.
	wantMiB := map[string]float64{
		"conv1": 221.56, "conv2": 142.38, "conv3": 49.51, "conv4": 49.51, "conv5": 33.01,
	}
	for _, nd := range n.Nodes {
		if want, ok := wantMiB[nd.Name()]; ok {
			got := float64(nd.L.OutBytes()) / (1 << 20)
			if got < want-0.01 || got > want+0.01 {
				t.Errorf("%s out = %.2f MiB, want %.2f", nd.Name(), got, want)
			}
		}
	}
	// ~61M parameters.
	params := n.ParamBytes() / 4
	if params < 58e6 || params > 64e6 {
		t.Errorf("AlexNet params = %d, want ~61M", params)
	}
}

func TestVGGStructure(t *testing.T) {
	v16 := VGG16(32)
	if v16.ConvDepth() != 16 {
		t.Errorf("VGG16 weighted depth = %d, want 16", v16.ConvDepth())
	}
	v19 := VGG19(32)
	if v19.ConvDepth() != 19 {
		t.Errorf("VGG19 weighted depth = %d, want 19", v19.ConvDepth())
	}
	// ~138M parameters for VGG16.
	params := v16.ParamBytes() / 4
	if params < 130e6 || params > 145e6 {
		t.Errorf("VGG16 params = %d, want ~138M", params)
	}
}

func TestResNetDepthFormula(t *testing.T) {
	if ResNetDepth(3, 4, 6, 3) != 50 {
		t.Error("ResNet-50 formula broken")
	}
	if ResNetDepth(3, 4, 23, 3) != 101 {
		t.Error("ResNet-101 formula broken")
	}
	if ResNetDepth(3, 8, 36, 3) != 152 {
		t.Error("ResNet-152 formula broken")
	}
	for _, d := range []int{50, 101, 152} {
		n := ResNet(d, 2)
		// ConvDepth counts projection shortcuts too (4 of them) plus
		// the FC; the canonical depth counts stem + 3/block + fc.
		want := d + 4 // the four projection convs are extra vs the naming convention
		if got := n.ConvDepth(); got != want {
			t.Errorf("ResNet-%d conv depth = %d, want %d", d, got, want)
		}
		if n.Nodes[len(n.Nodes)-1].L.Type != layers.Softmax {
			t.Errorf("ResNet-%d must end in softmax", d)
		}
	}
}

func TestResNetUnknownDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ResNet(42) must panic")
		}
	}()
	ResNet(42, 1)
}

func TestResNetJoinShapes(t *testing.T) {
	n := ResNet(50, 4)
	for _, nd := range n.Nodes {
		if nd.L.Type == layers.Eltwise && len(nd.Prev) != 2 {
			t.Errorf("residual join %s has %d inputs", nd.Name(), len(nd.Prev))
		}
	}
	// Final feature map must be 2048x7x7.
	for _, nd := range n.Nodes {
		if nd.Name() == "avgpool" {
			in := nd.L.In[0]
			if in.C != 2048 || in.H != 7 {
				t.Errorf("pre-avgpool shape = %v, want 2048x7x7", in)
			}
		}
	}
}

func TestInceptionV4Structure(t *testing.T) {
	n := InceptionV4(2)
	// The paper: "the latest Inception v4 has 515 basic layers".
	if got := n.BasicLayers(); got < 450 || got > 560 {
		t.Errorf("InceptionV4 basic layers = %d, want ~515", got)
	}
	// Spatial flow: 35x35 after stem-cat3, 17x17 after reduction-A,
	// 8x8 after reduction-B.
	want := map[string][2]int{"stem_cat3": {35, 384}, "ra_cat": {17, 1024}, "rb_cat": {8, 1536}}
	for _, nd := range n.Nodes {
		if w, ok := want[nd.Name()]; ok {
			if nd.L.Out.H != w[0] || nd.L.Out.C != w[1] {
				t.Errorf("%s out = %v, want %dx%dx%d", nd.Name(), nd.L.Out, w[1], w[0], w[0])
			}
		}
	}
}

func TestDenseNetStructure(t *testing.T) {
	n := DenseNet121(2)
	if denseNetDepth(DenseNet121Config) != 121 {
		t.Errorf("DenseNet-121 depth formula = %d", denseNetDepth(DenseNet121Config))
	}
	// Full-join: the last layer of block 4 concatenates 16+1 feature
	// groups... check the block output concat has reps+1 inputs.
	for _, nd := range n.Nodes {
		if nd.Name() == "db4_out" && len(nd.Prev) != 17 {
			t.Errorf("db4_out joins %d inputs, want 17", len(nd.Prev))
		}
	}
	// Channel bookkeeping: block1 out = 64 + 6*32 = 256.
	for _, nd := range n.Nodes {
		if nd.Name() == "db1_out" && nd.L.Out.C != 256 {
			t.Errorf("db1_out channels = %d, want 256", nd.L.Out.C)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(Registry) != 8 {
		t.Errorf("registry has %d entries, want 8", len(Registry))
	}
	for _, e := range Registry {
		n := e.Build(1)
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if n.Batch() != 1 {
			t.Errorf("%s batch = %d", e.Name, n.Batch())
		}
	}
	if ByName("AlexNet") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

func TestRouteDiagram(t *testing.T) {
	net, _ := fig6Net(t)
	out := net.RouteDiagram()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(net.Nodes) {
		t.Fatalf("diagram lines = %d, want %d", len(lines), len(net.Nodes))
	}
	// Joins and fans are annotated (Fig. 6's structure).
	if !strings.Contains(out, "[join]") || !strings.Contains(out, "[fan]") {
		t.Errorf("diagram missing join/fan annotations:\n%s", out)
	}
	// Fig. 6 numbering: forward step i pairs with backward step
	// 2N-1-i; the first layer carries the last backward step.
	want := fmt.Sprintf("%3d/%3d", 0, 2*len(net.Nodes)-1)
	if !strings.HasPrefix(lines[0], want) {
		t.Errorf("first line %q lacks the %q numbering", lines[0], want)
	}
}

func TestDeepResNetRouteScales(t *testing.T) {
	// The paper trains ResNet-2500 (~1e4 basic layers). The route
	// construction must handle graphs of that scale; use a quarter of
	// it here to keep the test fast.
	n := ResNetTable4(1, 160) // depth = 3*(6+32+160+6)+2 = 614
	if d := ResNetDepth(6, 32, 160, 6); d != 614 {
		t.Fatalf("table-4 depth = %d", d)
	}
	route := n.Route()
	if len(route) != len(n.Nodes) {
		t.Fatal("route incomplete on deep ResNet")
	}
	if n.BasicLayers() < 2000 {
		t.Errorf("deep ResNet has %d basic layers, expected >2000", n.BasicLayers())
	}
}

// nodeView is what a fresh build determines about one node: its spec,
// its name and its edges as node IDs.
type nodeView struct {
	Spec       layers.Spec
	Name       string
	Prev, Next []int
}

func viewOf(n *Net) []nodeView {
	ids := func(nodes []*Node) []int {
		out := make([]int, len(nodes))
		for i, nd := range nodes {
			out[i] = nd.ID
		}
		return out
	}
	out := make([]nodeView, len(n.Nodes))
	for i, nd := range n.Nodes {
		out[i] = nodeView{nd.L, nd.Name(), ids(nd.Prev), ids(nd.Next)}
	}
	return out
}

// sameNet fails the test unless got equals want node for node.
func sameNet(t *testing.T, what string, got, want *Net) {
	t.Helper()
	if got.Name != want.Name || got.Batch() != want.Batch() || got.Input != got.Nodes[0] {
		t.Fatalf("%s: net %s at batch %d, want %s at batch %d", what, got.Name, got.Batch(), want.Name, want.Batch())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	g, w := viewOf(got), viewOf(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d nodes, want %d", what, len(g), len(w))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("%s: node %d is %+v, want %+v", what, i, g[i], w[i])
		}
	}
}

// TestRebatchMatchesBuild: a network built at one batch and re-shaped
// to another equals a fresh build at that batch, node for node, for
// every registry net and the Table 4 depth-sweep ResNet. The re-shapes
// chain, as a batch search's probes do. A clone equals its original,
// and re-shaping it leaves the original as built.
func TestRebatchMatchesBuild(t *testing.T) {
	type namedBuild struct {
		name  string
		build BuilderFunc
	}
	builds := []namedBuild{{"ResNetTable4(·, 3)", func(b int) *Net { return ResNetTable4(b, 3) }}}
	for _, e := range Registry {
		builds = append(builds, namedBuild{e.Name, e.Build})
	}
	batches := []int{1, 3, 64, 257}
	for _, c := range builds {
		net := c.build(16)
		clone := net.Clone()
		sameNet(t, c.name+" clone", clone, net)
		for _, b := range batches {
			clone.Rebatch(b)
			sameNet(t, fmt.Sprintf("%s clone at %d", c.name, b), clone, c.build(b))
		}
		sameNet(t, c.name+" after re-shaping its clone", net, c.build(16))
		for _, b := range batches {
			net.Rebatch(b)
			sameNet(t, fmt.Sprintf("%s at %d", c.name, b), net, c.build(b))
		}
	}
}

func TestRebatchRejectsEmptyBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Rebatch(0) did not panic")
		}
	}()
	AlexNet(2).Rebatch(0)
}
