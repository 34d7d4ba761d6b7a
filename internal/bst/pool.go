package bst

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool, which hands out only nodes that waited out a grace
// period (or were drawn fresh and never published), so no thread can
// hold one and plain stores re-initialize it.

// freshNode heap-allocates a node of the given kind (the pool's fresh
// callback).
func freshNode(leaf bool) *Node { return &Node{leaf: leaf} }

// newLeaf builds a leaf holding key/val from the pool. The Init stores
// leave the cells' versions where they are (0 on a fresh node: readable
// at any snapshot).
func (h *Handle) newLeaf(key, val uint64) *Node {
	n := h.Pool.Take(true)
	n.hdr.Reset()
	n.key = key
	n.val.Init(val)
	return n
}

// newInternal builds an internal node routing by key from the pool.
func (h *Handle) newInternal(key uint64, left, right *Node) *Node {
	n := h.Pool.Take(false)
	n.hdr.Reset()
	n.key = key
	n.l.Init(left)
	n.r.Init(right)
	return n
}
