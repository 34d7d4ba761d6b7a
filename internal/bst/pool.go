package bst

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool; this file wires its three free lists to the BST's
// node kinds. A leaf removed by a fast-path commit goes straight onto the
// immediate list — sound because the fast path excludes the fallback
// path, so every thread that can still hold a reference runs
// transactionally and aborts on the version-advancing Recycle stores the
// leaf is reused with (the leaf key is a cell for exactly this reason). A
// leaf removed on any other path comes back through a grace period, after
// which nobody can hold it, and is reused with plain stores like a fresh
// one. Internal nodes always wait out a grace period: their routing keys
// are read with plain loads on the descent hot path (htm.Word.Peek),
// which is only sound if no reader can ever observe a reuse.

// freshNode heap-allocates a node of the given kind with its cells
// bound to the tree's clock (the pool's fresh callback).
func (h *Handle) freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	n.bind(h.Clk)
	return n
}

// newLeaf builds a leaf holding key/val from the pool. A leaf that
// skipped its grace period re-initializes its cells with
// version-advancing stores so stale transactional readers abort; any
// other is out of every thread's reach and takes plain Init stores,
// which leave the versions where they are (0 on a fresh node: readable
// at any snapshot).
func (h *Handle) newLeaf(key, val uint64) *Node {
	n, stale := h.Pool.Take(true)
	if stale {
		n.hdr.Recycle()
		n.key.Recycle(key)
		n.val.Recycle(val)
		return n
	}
	n.hdr.Reset()
	n.key.Init(key)
	n.val.Init(val)
	return n
}

// newInternal builds an internal node routing by key from the pool.
// Internal nodes only reach the pool through a grace period, so no
// thread can still hold them and plain (non-version-advancing) stores
// re-initialize them.
func (h *Handle) newInternal(key uint64, left, right *Node) *Node {
	n, _ := h.Pool.Take(false)
	n.hdr.Reset()
	n.key.Init(key)
	n.l.Init(left)
	n.r.Init(right)
	return n
}
