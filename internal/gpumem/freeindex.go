package gpumem

import "fmt"

// freeIndex is the pool's free-space index: an address-ordered AVL tree
// over the free spans, where every node is augmented with the maximum
// span size in its subtree. The augmentation answers "lowest-address
// span with size ≥ need" (exactly first fit) in O(log n), makes
// LargestFree/MaxAlloc O(1) reads of the root, and keeps
// insert-with-coalesce on Free at O(log n). Placement is byte-identical
// to a linear first-fit scan of the address-sorted free list: both
// return the fitting span with the lowest address.
//
// Removed nodes are recycled through a spare list so steady-state
// alloc/free traffic performs no heap allocations.
type freeIndex struct {
	root  *fnode
	count int
	spare *fnode // recycled nodes, chained through left
}

// fnode is one free span. h is the AVL height; max the largest span
// size in the subtree rooted here.
type fnode struct {
	left, right *fnode
	addr, size  int64
	max         int64
	h           int32
}

func fheight(n *fnode) int32 {
	if n == nil {
		return 0
	}
	return n.h
}

func fmaxsize(n *fnode) int64 {
	if n == nil {
		return 0
	}
	return n.max
}

// refresh recomputes the node's height and max from its children.
func (n *fnode) refresh() {
	n.h = 1 + max(fheight(n.left), fheight(n.right))
	n.max = max(n.size, fmaxsize(n.left), fmaxsize(n.right))
}

func rotateLeft(n *fnode) *fnode {
	r := n.right
	n.right = r.left
	r.left = n
	n.refresh()
	r.refresh()
	return r
}

func rotateRight(n *fnode) *fnode {
	l := n.left
	n.left = l.right
	l.right = n
	n.refresh()
	l.refresh()
	return l
}

// rebalance restores the AVL invariant at n after one child changed
// height by at most one, refreshing augmentations along the way.
func rebalance(n *fnode) *fnode {
	n.refresh()
	switch bf := fheight(n.left) - fheight(n.right); {
	case bf > 1:
		if fheight(n.left.left) < fheight(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if fheight(n.right.right) < fheight(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func (ix *freeIndex) newNode(addr, size int64) *fnode {
	n := ix.spare
	if n != nil {
		ix.spare = n.left
		*n = fnode{}
	} else {
		n = &fnode{}
	}
	n.addr, n.size, n.max, n.h = addr, size, size, 1
	return n
}

func (ix *freeIndex) recycle(n *fnode) {
	*n = fnode{left: ix.spare}
	ix.spare = n
}

// reset empties the index, moving every node to the spare list.
func (ix *freeIndex) reset() {
	ix.recycleTree(ix.root)
	ix.root, ix.count = nil, 0
}

func (ix *freeIndex) recycleTree(n *fnode) {
	if n != nil {
		ix.recycleTree(n.left)
		ix.recycleTree(n.right)
		ix.recycle(n)
	}
}

// insert adds a span. Spans never overlap, so addr is always new.
func (ix *freeIndex) insert(addr, size int64) {
	ix.root = ix.ins(ix.root, addr, size)
	ix.count++
}

func (ix *freeIndex) ins(n *fnode, addr, size int64) *fnode {
	if n == nil {
		return ix.newNode(addr, size)
	}
	if addr < n.addr {
		n.left = ix.ins(n.left, addr, size)
	} else {
		n.right = ix.ins(n.right, addr, size)
	}
	return rebalance(n)
}

// remove deletes the span at addr, which must exist.
func (ix *freeIndex) remove(addr int64) {
	ix.root = ix.rm(ix.root, addr)
	ix.count--
}

func (ix *freeIndex) rm(n *fnode, addr int64) *fnode {
	if n == nil {
		panic(fmt.Sprintf("gpumem: free index: remove of missing span at %d", addr))
	}
	switch {
	case addr < n.addr:
		n.left = ix.rm(n.left, addr)
	case addr > n.addr:
		n.right = ix.rm(n.right, addr)
	default:
		if n.left == nil {
			r := n.right
			ix.recycle(n)
			return r
		}
		if n.right == nil {
			l := n.left
			ix.recycle(n)
			return l
		}
		// Two children: adopt the in-order successor's span, then
		// delete that successor from the right subtree.
		s := n.right
		for s.left != nil {
			s = s.left
		}
		n.addr, n.size = s.addr, s.size
		n.right = ix.rm(n.right, s.addr)
	}
	return rebalance(n)
}

// firstFit returns the lowest-address span with size ≥ need: descend
// left whenever the left subtree holds a big-enough span, take the
// current node next, and only then fall through to the right subtree.
func (ix *freeIndex) firstFit(need int64) (addr, size int64, ok bool) {
	n := ix.root
	if fmaxsize(n) < need {
		return 0, 0, false
	}
	for {
		if fmaxsize(n.left) >= need {
			n = n.left
			continue
		}
		if n.size >= need {
			return n.addr, n.size, true
		}
		n = n.right // the subtree max guarantees a fit further right
	}
}

// adjust applies f to the span at addr (which must exist) and refreshes
// the max augmentation along the search path. The mutation must keep
// the node's address between its in-order neighbors — shrinking a span
// from the front or growing it in place both qualify — so the tree
// shape and heights are untouched.
func (ix *freeIndex) adjust(addr int64, f func(n *fnode)) {
	ix.adj(ix.root, addr, f)
}

func (ix *freeIndex) adj(n *fnode, addr int64, f func(n *fnode)) {
	if n == nil {
		panic(fmt.Sprintf("gpumem: free index: adjust of missing span at %d", addr))
	}
	switch {
	case addr < n.addr:
		ix.adj(n.left, addr, f)
	case addr > n.addr:
		ix.adj(n.right, addr, f)
	default:
		f(n)
	}
	n.max = max(n.size, fmaxsize(n.left), fmaxsize(n.right))
}

// takeFront carves need bytes off the front of the span at addr; the
// span must be strictly larger than need (exact fits use remove).
func (ix *freeIndex) takeFront(addr, need int64) {
	ix.adjust(addr, func(n *fnode) {
		n.addr += need
		n.size -= need
	})
}

// grow extends the span at addr by delta bytes (coalescing a freed
// neighbor into its predecessor without re-keying the tree).
func (ix *freeIndex) grow(addr, delta int64) {
	ix.adjust(addr, func(n *fnode) { n.size += delta })
}

// prevSpan returns the span with the greatest address < addr.
func (ix *freeIndex) prevSpan(addr int64) (a, size int64, ok bool) {
	for n := ix.root; n != nil; {
		if n.addr < addr {
			a, size, ok = n.addr, n.size, true
			n = n.right
		} else {
			n = n.left
		}
	}
	return a, size, ok
}

// nextSpan returns the span with the smallest address > addr.
func (ix *freeIndex) nextSpan(addr int64) (a, size int64, ok bool) {
	for n := ix.root; n != nil; {
		if n.addr > addr {
			a, size, ok = n.addr, n.size, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return a, size, ok
}

// largest returns the size of the biggest free span in O(1).
func (ix *freeIndex) largest() int64 { return fmaxsize(ix.root) }

// walk visits the spans in address order until fn returns an error.
func (ix *freeIndex) walk(fn func(addr, size int64) error) error {
	return walkNode(ix.root, fn)
}

func walkNode(n *fnode, fn func(addr, size int64) error) error {
	if n == nil {
		return nil
	}
	if err := walkNode(n.left, fn); err != nil {
		return err
	}
	if err := fn(n.addr, n.size); err != nil {
		return err
	}
	return walkNode(n.right, fn)
}

// check validates the tree structure itself: BST order by address, AVL
// balance, correct heights and max augmentations, and the node count.
func (ix *freeIndex) check() error {
	n, err := checkNode(ix.root)
	if err != nil {
		return err
	}
	if n != ix.count {
		return fmt.Errorf("free index count drift: %d nodes, counter %d", n, ix.count)
	}
	return nil
}

func checkNode(n *fnode) (int, error) {
	if n == nil {
		return 0, nil
	}
	if n.left != nil && n.left.addr >= n.addr {
		return 0, fmt.Errorf("free index order violation: left %d >= %d", n.left.addr, n.addr)
	}
	if n.right != nil && n.right.addr <= n.addr {
		return 0, fmt.Errorf("free index order violation: right %d <= %d", n.right.addr, n.addr)
	}
	if bf := fheight(n.left) - fheight(n.right); bf < -1 || bf > 1 {
		return 0, fmt.Errorf("free index unbalanced at %d: balance factor %d", n.addr, bf)
	}
	if want := 1 + max(fheight(n.left), fheight(n.right)); n.h != want {
		return 0, fmt.Errorf("free index height drift at %d: %d, want %d", n.addr, n.h, want)
	}
	if want := max(n.size, fmaxsize(n.left), fmaxsize(n.right)); n.max != want {
		return 0, fmt.Errorf("free index max drift at %d: %d, want %d", n.addr, n.max, want)
	}
	nl, err := checkNode(n.left)
	if err != nil {
		return 0, err
	}
	nr, err := checkNode(n.right)
	if err != nil {
		return 0, err
	}
	return nl + nr + 1, nil
}
