package nnet

import (
	"fmt"

	"repro/internal/tensor"
)

// ResNetStages builds a bottleneck ResNet controlled by the four
// for-loop limits of the paper's Table 4:
//
//	depth = 3*(n1+n2+n3+n4) + 2
//
// counting the three convolutions of every bottleneck block plus the
// stem convolution and the classifier. Standard instantiations:
// ResNet-50 = (3,4,6,3), ResNet-101 = (3,4,23,3), ResNet-152 =
// (3,8,36,3); Table 4's depth sweep fixes n1=6, n2=32, n4=6 and varies
// n3.
func ResNetStages(batch, n1, n2, n3, n4 int) *Net {
	reps := [4]int{n1, n2, n3, n4}
	b, n := resnetStem(batch)
	for s := 0; s < 4; s++ {
		n = resnetBlocks(b, n, s, 0, reps[s])
	}
	resnetHead(b, n)
	b.net.Name = fmt.Sprintf("ResNet%d", ResNetDepth(n1, n2, n3, n4))
	return b.Finish()
}

// Bottleneck widths of the four stages: the 1x1 reduce/3x3 width and
// the expanded output width.
var (
	resnetMid = [4]int{64, 128, 256, 512}
	resnetOut = [4]int{256, 512, 1024, 2048}
)

// resnetStem starts an unnamed ResNet at the given batch: 7x7/64
// stride 2, BN, ReLU, 3x3 max pool stride 2 -> 64x56x56.
func resnetStem(batch int) (*Builder, *Node) {
	b, n := NewBuilder("", tensor.Shape{N: batch, C: 3, H: 224, W: 224})
	n = b.Conv(n, "conv1", 64, 7, 2, 3)
	n = b.BN(n, "bn1")
	n = b.Act(n, "relu1")
	return b, b.Pool(n, "pool1", 3, 2, 1, false)
}

// resnetBlocks appends blocks from+1 through to of stage s (0-based)
// after n and returns the last block's output. A stage's first block
// projects the shortcut, and from stage 2 on it also halves the
// resolution.
func resnetBlocks(b *Builder, n *Node, s, from, to int) *Node {
	for r := from; r < to; r++ {
		stride := 1
		if s > 0 && r == 0 {
			stride = 2
		}
		n = bottleneck(b, n, fmt.Sprintf("s%db%d", s+1, r+1), resnetMid[s], resnetOut[s], stride, r == 0)
	}
	return n
}

// resnetHead appends the classifier: global average pool, FC-1000 and
// softmax.
func resnetHead(b *Builder, n *Node) {
	n = b.GlobalPool(n, "avgpool")
	n = b.FC(n, "fc", 1000)
	b.Softmax(n, "softmax")
}

// bottleneck appends one residual bottleneck unit: 1x1 reduce, 3x3,
// 1x1 expand on the main path; identity or plain 1x1 projection on the
// shortcut (no shortcut BN — the paper's Table 1 recompute counts for
// ResNet-50/101 only decompose with an unnormalized projection);
// element-wise join; ReLU.
func bottleneck(b *Builder, in *Node, id string, mid, out, stride int, project bool) *Node {
	n := b.Conv(in, id+"_conv1", mid, 1, stride, 0)
	n = b.BN(n, id+"_bn1")
	n = b.Act(n, id+"_relu1")
	n = b.Conv(n, id+"_conv2", mid, 3, 1, 1)
	n = b.BN(n, id+"_bn2")
	n = b.Act(n, id+"_relu2")
	n = b.Conv(n, id+"_conv3", out, 1, 1, 0)
	n = b.BN(n, id+"_bn3")

	shortcut := in
	if project {
		shortcut = b.Conv(in, id+"_proj", out, 1, stride, 0)
	}
	n = b.Eltwise(id+"_join", n, shortcut)
	return b.Act(n, id+"_relu")
}

// ResNet builds the named standard depths (50, 101, 152) or panics on
// anything else; use ResNetStages for custom depths.
func ResNet(depth, batch int) *Net {
	switch depth {
	case 50:
		return ResNetStages(batch, 3, 4, 6, 3)
	case 101:
		return ResNetStages(batch, 3, 4, 23, 3)
	case 152:
		return ResNetStages(batch, 3, 8, 36, 3)
	default:
		panic(fmt.Sprintf("nnet: no standard ResNet-%d; use ResNetStages", depth))
	}
}

// ResNetTable4 builds the Table 4 depth-sweep variant: n1=6, n2=32,
// n4=6, with the given n3.
func ResNetTable4(batch, n3 int) *Net { return ResNetStages(batch, 6, 32, n3, 6) }

// ResNetTable4Restager returns a build func for a depth search over
// Table 4's ResNet at the given batch. Its first call builds the
// network; every later call re-stages that same network to the new n3
// in place. It keeps the stem, stages 1-2 and the first min(old, new)
// stage-3 blocks, cuts the kept tail's outgoing edges, appends the
// missing stage-3 blocks and re-adds stage 4 and the head, so a probe
// next to the last one rebuilds about 70 layers instead of the whole
// network. The result equals ResNetTable4(batch, n3) node for node and
// is validated like any build. A search runs its probes one at a time;
// nothing that read the network at its old depth may rely on it
// afterwards.
func ResNetTable4Restager(batch int) func(n3 int) *Net {
	var (
		b *Builder
		// ends[k] is the node count through stage-3 block k, so
		// ends[0] is the node count through stage 2.
		ends []int
	)
	return func(n3 int) *Net {
		if b == nil {
			var n *Node
			b, n = resnetStem(batch)
			n = resnetBlocks(b, n, 0, 0, 6)
			resnetBlocks(b, n, 1, 0, 32)
			ends = []int{len(b.net.Nodes)}
		}
		keep := min(len(ends)-1, n3)
		net := b.net
		clear(net.Nodes[ends[keep]:]) // let the cut layers go
		net.Nodes = net.Nodes[:ends[keep]]
		ends = ends[:keep+1]
		n := net.Nodes[len(net.Nodes)-1]
		n.Next = n.Next[:0]
		for r := keep; r < n3; r++ {
			n = resnetBlocks(b, n, 2, r, r+1)
			ends = append(ends, len(net.Nodes))
		}
		resnetHead(b, resnetBlocks(b, n, 3, 0, 6))
		net.Name = fmt.Sprintf("ResNet%d", ResNetDepth(6, 32, n3, 6))
		return b.Finish()
	}
}

// ResNetDepth returns the paper's depth formula for the four limits.
func ResNetDepth(n1, n2, n3, n4 int) int { return 3*(n1+n2+n3+n4) + 2 }
