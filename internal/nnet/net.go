// Package nnet represents neural networks as layer graphs and
// implements the paper's Algorithm 1: constructing a serial execution
// route through an arbitrary non-linear (fan/join) architecture by
// depth-first search that pauses at joins until every predecessor has
// executed.
//
// The package also ships faithful builders for every architecture the
// paper evaluates: AlexNet (the 23-layer LRN variant of its Fig. 10),
// VGG-16/19, bottleneck ResNets with the 4 for-loop depth controls of
// Table 4, Inception-v4, and DenseNet-121.
package nnet

import (
	"fmt"
	"strings"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// Node is one layer instance in a network graph.
type Node struct {
	ID   int
	L    layers.Spec
	Prev []*Node
	Next []*Node
}

// Name returns the layer name.
func (n *Node) Name() string { return n.L.Name }

// Net is a directed acyclic layer graph with a single data source.
type Net struct {
	Name  string
	Nodes []*Node // in creation order; Nodes[i].ID == i
	Input *Node
}

// Batch returns the batch size the network was built for.
func (n *Net) Batch() int { return n.Input.L.Out.N }

// Rebatch re-shapes the network to batch b in place: it sets the batch
// dimension N of every layer's input and output shapes. Builders take
// the batch only through the data layer's shape, so the result equals
// a fresh build at batch b, at the cost of one pass over the layers
// instead of a new graph. A batch search re-shapes one network per
// probe this way; nothing that read the network at its old batch may
// rely on it afterwards.
func (n *Net) Rebatch(b int) {
	if b < 1 {
		panic(fmt.Sprintf("nnet %s: batch %d, want at least 1", n.Name, b))
	}
	for _, nd := range n.Nodes {
		for i := range nd.L.In {
			nd.L.In[i].N = b
		}
		nd.L.Out.N = b
	}
}

// Clone returns a deep copy of the network: its own nodes, input
// shapes and edges, in a fixed number of allocations whatever the
// depth. Only the layer names, which are immutable, are shared. A
// clone can be re-shaped with Rebatch while the original, or another
// clone, is in use.
func (n *Net) Clone() *Net {
	var shapes, edges int
	for _, nd := range n.Nodes {
		shapes += len(nd.L.In)
		edges += len(nd.Prev) + len(nd.Next)
	}
	nodes := make([]Node, len(n.Nodes))
	inBuf := make([]tensor.Shape, 0, shapes)
	edgeBuf := make([]*Node, 0, edges)
	c := &Net{Name: n.Name, Nodes: make([]*Node, len(n.Nodes)), Input: &nodes[n.Input.ID]}
	// Each copied list is cut with a full slice expression, so an
	// append to one reallocates instead of overwriting the next.
	link := func(src []*Node) []*Node {
		if src == nil {
			return nil
		}
		from := len(edgeBuf)
		for _, e := range src {
			edgeBuf = append(edgeBuf, &nodes[e.ID])
		}
		return edgeBuf[from:len(edgeBuf):len(edgeBuf)]
	}
	for i, nd := range n.Nodes {
		cn := &nodes[i]
		*cn = Node{ID: i, L: nd.L, Prev: link(nd.Prev), Next: link(nd.Next)}
		if nd.L.In != nil {
			from := len(inBuf)
			inBuf = append(inBuf, nd.L.In...)
			cn.L.In = inBuf[from:len(inBuf):len(inBuf)]
		}
		c.Nodes[i] = cn
	}
	return c
}

// CountType returns the number of layers of the given type.
func (n *Net) CountType(t layers.Type) int {
	c := 0
	for _, nd := range n.Nodes {
		if nd.L.Type == t {
			c++
		}
	}
	return c
}

// BasicLayers returns the total layer count (the paper's "basic
// network layers").
func (n *Net) BasicLayers() int { return len(n.Nodes) }

// ConvDepth returns the weighted-layer depth (CONV + FC), the counting
// convention behind names like "ResNet-50".
func (n *Net) ConvDepth() int {
	return n.CountType(layers.Conv) + n.CountType(layers.FC)
}

// ParamBytes sums all persistent parameter bytes.
func (n *Net) ParamBytes() int64 {
	var sum int64
	for _, nd := range n.Nodes {
		sum += nd.L.ParamBytes()
	}
	return sum
}

// AuxBytes sums all persistent auxiliary bytes (dropout reserves, BN
// saved statistics).
func (n *Net) AuxBytes() int64 {
	var sum int64
	for _, nd := range n.Nodes {
		sum += nd.L.AuxBytes()
	}
	return sum
}

// Route computes the forward execution order with the paper's
// Algorithm 1: depth-first traversal from the data layer, where a node
// with multiple predecessors (a join) executes only after its input
// dependency counter reaches the predecessor count.
//
// Route panics if the graph is not a single-source DAG reaching every
// node, which would make the returned order non-executable.
func (n *Net) Route() []*Node {
	return n.AppendRoute(make([]*Node, 0, len(n.Nodes)), make([]int, len(n.Nodes)))
}

// AppendRoute appends the forward route to dst and returns it.
// counters must hold len(n.Nodes) zeros; it keeps the join counters,
// so a caller that lowers many networks can pass reused buffers and
// route without allocating.
func (n *Net) AppendRoute(dst []*Node, counters []int) []*Node {
	r := router{route: dst, counters: counters}
	from := len(dst)
	r.visit(n.Input)
	if got := len(r.route) - from; got != len(n.Nodes) {
		panic(fmt.Sprintf("nnet: route covers %d of %d nodes; graph disconnected or cyclic",
			got, len(n.Nodes)))
	}
	return r.route
}

// router is the state of one Algorithm 1 traversal.
type router struct {
	route    []*Node
	counters []int
}

func (r *router) visit(nd *Node) {
	r.counters[nd.ID]++
	if r.counters[nd.ID] < len(nd.Prev) {
		return // a join: wait until all prior layers finish (Alg.1 line 5)
	}
	r.route = append(r.route, nd)
	for _, nx := range nd.Next {
		r.visit(nx)
	}
}

// RouteDiagram renders the execution route with the paper's Fig. 6
// numbering: every layer with its forward and backward step indices
// and its predecessors, so fan/join scheduling can be inspected.
func (n *Net) RouteDiagram() string {
	route := n.Route()
	fwd := make(map[*Node]int, len(route))
	for i, nd := range route {
		fwd[nd] = i
	}
	var b strings.Builder
	total := 2 * len(route)
	for i, nd := range route {
		bwd := total - 1 - i
		preds := make([]string, len(nd.Prev))
		for j, p := range nd.Prev {
			preds[j] = p.Name()
		}
		join := ""
		if len(nd.Prev) > 1 {
			join = "  [join]"
		}
		if len(nd.Next) > 1 {
			join += "  [fan]"
		}
		fmt.Fprintf(&b, "%3d/%3d  %-8s %-16s <- %s%s\n",
			i, bwd, nd.L.Type, nd.Name(), strings.Join(preds, ", "), join)
	}
	return b.String()
}

// Validate checks structural sanity: IDs match positions, edges are
// symmetric, shapes agree along edges, and exactly one data layer
// exists. Builders call this before returning.
func (n *Net) Validate() error {
	if n.Input == nil || len(n.Nodes) == 0 {
		return fmt.Errorf("nnet %s: empty network", n.Name)
	}
	dataCount := 0
	for i, nd := range n.Nodes {
		if nd.ID != i {
			return fmt.Errorf("nnet %s: node %q has ID %d at position %d", n.Name, nd.Name(), nd.ID, i)
		}
		if nd.L.Type == layers.Data {
			dataCount++
		}
		if len(nd.Prev) != len(nd.L.In) {
			return fmt.Errorf("nnet %s: node %q has %d predecessors but %d input shapes",
				n.Name, nd.Name(), len(nd.Prev), len(nd.L.In))
		}
		for j, p := range nd.Prev {
			if p.L.Out != nd.L.In[j] {
				return fmt.Errorf("nnet %s: edge %q->%q shape mismatch: %v vs %v",
					n.Name, p.Name(), nd.Name(), p.L.Out, nd.L.In[j])
			}
			found := false
			for _, q := range p.Next {
				if q == nd {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("nnet %s: edge %q->%q not symmetric", n.Name, p.Name(), nd.Name())
			}
		}
	}
	if dataCount != 1 {
		return fmt.Errorf("nnet %s: %d data layers, want 1", n.Name, dataCount)
	}
	return nil
}

// Builder incrementally assembles a Net. Its helper methods derive each
// layer's input shape from the predecessor node, so architecture code
// reads like the layer listings in the papers.
type Builder struct {
	net *Net
	// nodes is the unused rest of the current chunk Add carves nodes
	// from, so a deep network costs one allocation per nodeChunk nodes.
	nodes []Node
}

// nodeChunk is how many nodes Builder.Add allocates at once.
const nodeChunk = 64

// NewBuilder starts a network with the given name and input geometry,
// returning the builder and the data node.
func NewBuilder(name string, input tensor.Shape) (*Builder, *Node) {
	b := &Builder{net: &Net{Name: name}}
	data := b.Add(layers.NewData("data", input))
	b.net.Input = data
	return b, data
}

// Add appends a layer connected to the given predecessors.
func (b *Builder) Add(spec layers.Spec, prevs ...*Node) *Node {
	if len(b.nodes) == 0 {
		b.nodes = make([]Node, nodeChunk)
	}
	nd := &b.nodes[0]
	b.nodes = b.nodes[1:]
	*nd = Node{ID: len(b.net.Nodes), L: spec, Prev: prevs}
	for _, p := range prevs {
		p.Next = append(p.Next, nd)
	}
	b.net.Nodes = append(b.net.Nodes, nd)
	return nd
}

// Conv adds a square convolution after prev.
func (b *Builder) Conv(prev *Node, name string, outC, k, stride, pad int) *Node {
	return b.Add(layers.NewConv(name, prev.L.Out, outC, k, stride, pad), prev)
}

// ConvRect adds a rectangular convolution after prev.
func (b *Builder) ConvRect(prev *Node, name string, outC, kh, kw, stride, padH, padW int) *Node {
	return b.Add(layers.NewConvRect(name, prev.L.Out, outC, kh, kw, stride, padH, padW), prev)
}

// Pool adds a pooling layer after prev.
func (b *Builder) Pool(prev *Node, name string, k, stride, pad int, avg bool) *Node {
	return b.Add(layers.NewPool(name, prev.L.Out, k, stride, pad, avg), prev)
}

// GlobalPool adds a global average pool after prev.
func (b *Builder) GlobalPool(prev *Node, name string) *Node {
	return b.Add(layers.NewGlobalPool(name, prev.L.Out), prev)
}

// Act adds a ReLU after prev.
func (b *Builder) Act(prev *Node, name string) *Node {
	return b.Add(layers.NewAct(name, prev.L.Out), prev)
}

// LRN adds a local response normalization after prev.
func (b *Builder) LRN(prev *Node, name string) *Node {
	return b.Add(layers.NewLRN(name, prev.L.Out), prev)
}

// BN adds a batch normalization after prev.
func (b *Builder) BN(prev *Node, name string) *Node {
	return b.Add(layers.NewBN(name, prev.L.Out), prev)
}

// FC adds a fully-connected layer after prev.
func (b *Builder) FC(prev *Node, name string, outC int) *Node {
	return b.Add(layers.NewFC(name, prev.L.Out, outC), prev)
}

// Dropout adds a dropout layer after prev.
func (b *Builder) Dropout(prev *Node, name string) *Node {
	return b.Add(layers.NewDropout(name, prev.L.Out), prev)
}

// Softmax adds a softmax-with-loss layer after prev.
func (b *Builder) Softmax(prev *Node, name string) *Node {
	return b.Add(layers.NewSoftmax(name, prev.L.Out), prev)
}

// Concat joins the predecessors by channel concatenation (a fan join).
func (b *Builder) Concat(name string, prevs ...*Node) *Node {
	shapes := make([]tensor.Shape, len(prevs))
	for i, p := range prevs {
		shapes[i] = p.L.Out
	}
	return b.Add(layers.NewConcat(name, shapes...), prevs...)
}

// Eltwise joins the predecessors by element-wise sum (a residual join).
func (b *Builder) Eltwise(name string, prevs ...*Node) *Node {
	shapes := make([]tensor.Shape, len(prevs))
	for i, p := range prevs {
		shapes[i] = p.L.Out
	}
	return b.Add(layers.NewEltwise(name, shapes...), prevs...)
}

// Finish validates and returns the assembled network.
func (b *Builder) Finish() *Net {
	if err := b.net.Validate(); err != nil {
		panic(err)
	}
	return b.net
}
