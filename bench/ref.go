package main

// The benchmark's two frozen kernels. They must not change when the
// system under test does.

// refKernel is the yardstick every timed end-to-end number is divided
// by: pure register arithmetic, private to one worker, touching no
// memory, so of everything that varies on a shared host it follows only
// the speed of the CPU itself, and its own speed does not depend on
// where the allocator happened to put it. One reference operation is
// refOpSteps splitmix64 steps — about what one operation on a small
// sequential tree costs (the ladder's bench.seq_ns is that cost
// measured). README.md records why the yardstick is not a tree.
type refKernel struct {
	r    rng
	sink uint64
}

const (
	refOpSteps = 64
	refBatch   = 256 // reference operations between clock reads

	// refNominal is the kernel's rate, in operations per second, on one
	// thread of the host the bounds were derived on when nothing disturbs
	// it. setup_s is scaled by it. It is a unit, not a measurement, and
	// never changes.
	refNominal = 1.4e7
)

// run performs n reference operations.
func (k *refKernel) run(n int) {
	r, acc := k.r, k.sink
	for i := 0; i < n*refOpSteps; i++ {
		acc ^= r.next()
	}
	k.r, k.sink = r, acc
}

// refTree is the sequential tree at the bottom of the layer ladder: a
// leaf-oriented binary search tree with no synchronisation at all,
// private to one worker. Internal nodes route (key < node.key goes
// left), leaves hold the pairs, and all nodes come from a slab allocated
// up front and are reused through a free list, so it never allocates
// after construction. It is what the concurrent trees would cost if they
// needed no concurrency control.
type refTree struct {
	root *refNode
	free *refNode
}

// refNode is a leaf when left == nil. Free nodes are chained through
// left.
type refNode struct {
	key, val    uint64
	left, right *refNode
}

// refSentinel is a leaf that is never deleted, so every user leaf has a
// parent. It exceeds every key the generator draws.
const refSentinel = ^uint64(0)

// newRefTree returns an empty tree able to hold maxKeys keys.
func newRefTree(maxKeys uint64) *refTree {
	slab := make([]refNode, 2*maxKeys+1)
	t := &refTree{}
	for i := range slab {
		slab[i].left = t.free
		t.free = &slab[i]
	}
	t.root = t.alloc(refSentinel, 0)
	return t
}

func (t *refTree) alloc(key, val uint64) *refNode {
	n := t.free
	if n == nil {
		n = &refNode{} // beyond the slab: only if the caller exceeds maxKeys
	} else {
		t.free = n.left
	}
	*n = refNode{key: key, val: val}
	return n
}

func (t *refTree) release(n *refNode) {
	n.left = t.free
	t.free = n
}

func (t *refTree) Insert(key, val uint64) (old uint64, existed bool) {
	var p *refNode
	l := t.root
	for l.left != nil {
		p = l
		if key < l.key {
			l = l.left
		} else {
			l = l.right
		}
	}
	if l.key == key {
		old, l.val = l.val, val
		return old, true
	}
	leaf := t.alloc(key, val)
	in := t.alloc(0, 0)
	if key < l.key {
		in.key, in.left, in.right = l.key, leaf, l
	} else {
		in.key, in.left, in.right = key, l, leaf
	}
	switch {
	case p == nil:
		t.root = in
	case p.left == l:
		p.left = in
	default:
		p.right = in
	}
	return 0, false
}

func (t *refTree) Delete(key uint64) (old uint64, existed bool) {
	var gp, p *refNode
	l := t.root
	for l.left != nil {
		gp, p = p, l
		if key < l.key {
			l = l.left
		} else {
			l = l.right
		}
	}
	if l.key != key {
		return 0, false
	}
	// A user leaf always has a parent: the sentinel leaf is its sibling
	// at the latest.
	sib := p.left
	if sib == l {
		sib = p.right
	}
	switch {
	case gp == nil:
		t.root = sib
	case gp.left == p:
		gp.left = sib
	default:
		gp.right = sib
	}
	old = l.val
	t.release(p)
	t.release(l)
	return old, true
}

func (t *refTree) Search(key uint64) (val uint64, found bool) {
	l := t.root
	for l.left != nil {
		if key < l.key {
			l = l.left
		} else {
			l = l.right
		}
	}
	if l.key == key {
		return l.val, true
	}
	return 0, false
}

// KeySum walks the tree: sum and count of the keys present.
func (t *refTree) KeySum() (sum, count uint64) {
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n.left == nil {
			if n.key != refSentinel {
				sum += n.key
				count++
			}
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return sum, count
}
