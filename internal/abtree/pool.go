package abtree

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool, which hands out only nodes that waited out a grace
// period (or were drawn fresh and never published). No thread can hold
// one, so plain stores re-initialize it: a leaf's order word, slots and
// header, and an internal node's degree and routing keys, which are
// plain memory. The leaf flag is write-once: the lists are segregated
// by kind, so a pooled node keeps the allocation type it was born with.

// freshNode heap-allocates a node of the given kind (the pool's fresh
// callback) as one allocation: the header and a leaf's slots, or the
// header and an internal node's keys and children. It is the one place
// a node is allocated; the bootstrap leaf and New's entry node come
// from it too.
func freshNode(leaf bool) *Node {
	if leaf {
		l := new(leafNode)
		l.leaf = true
		return &l.Node
	}
	return &new(internalNode).Node
}

// newLeaf builds a leaf holding pairs (sorted) from the pool, in identity
// order: pair i in slot i. Only the order word and the first len(pairs)
// slots are (re-)initialized.
func (h *Handle) newLeaf(pairs []kv) *Node {
	n := h.Pool.Take(true)
	n.hdr.Reset()
	n.ord.Init(permIdentity, uint64(len(pairs)))
	slots := n.slots()
	for i, p := range pairs {
		slots[i].Init(p.k, p.v)
	}
	return n
}

// newInternal builds an internal node from the pool; its arrays hold
// any degree up to MaxB.
func (h *Handle) newInternal(keys []uint64, children []*Node, tagged bool) *Node {
	n := h.Pool.Take(false)
	n.hdr.Reset()
	n.fill(keys, children, tagged)
	return n
}
