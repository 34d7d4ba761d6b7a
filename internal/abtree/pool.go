package abtree

import "htmtree/internal/htm"

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool, which hands out only nodes that waited out a grace
// period (or were drawn fresh and never published). No thread can hold
// one, so plain stores re-initialize it: a leaf's order word, slots and
// header, and an internal node's degree and routing-key array, which
// are plain memory. The leaf flag and the slot array pointer are
// write-once (the lists are segregated by kind and the array always has
// MaxB cells).

// freshNode heap-allocates a node of the given kind (the pool's fresh
// callback), complete with its arrays: a leaf's slots, an internal
// node's keys and children.
func freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	if leaf {
		n.slots = new([MaxB]htm.Pair)
	} else {
		n.allocArrays()
	}
	return n
}

// newLeaf builds a leaf holding pairs (sorted) from the pool, in identity
// order: pair i in slot i. Only the order word and the first len(pairs)
// slots are (re-)initialized.
func (h *Handle) newLeaf(pairs []kv) *Node {
	n := h.Pool.Take(true)
	n.hdr.Reset()
	n.ord.Init(permIdentity, uint64(len(pairs)))
	for i, p := range pairs {
		n.slots[i].Init(p.k, p.v)
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

// setPair writes a leaf cell in the body's transaction, or, with a nil
// tx (TLE's locked body), stores it at once.
func setPair(tx *htm.Tx, c *htm.Pair, a, b uint64) {
	if tx == nil {
		c.Store(a, b)
		return
	}
	c.Set(tx, a, b)
}
