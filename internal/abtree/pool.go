package abtree

import "htmtree/internal/htm"

// Node pooling (paper Section 9): the shared discipline lives in
// internal/nodepool; this file wires its three free lists to the
// (a,b)-tree's node kinds.
//
//   - A leaf removed by a fast-path commit goes straight onto the
//     immediate list, and a transaction that read it before may still
//     hold it when it is reused. Every reuse-mutable leaf field is a
//     transactional cell (ord, slots, header), so such a reader aborts
//     on the version-advancing Recycle stores — on ord, which every
//     reader of a leaf reads first. The leaf flag and the slot array
//     pointer are write-once (pools are segregated by kind and the array
//     always has MaxB cells).
//   - A leaf removed on any other path reaches the grace list through a
//     grace period, after which no thread can hold it: plain Init
//     stores, as for a fresh one, and no version word moves.
//   - Internal nodes always wait out a grace period: their degree and
//     routing-key array are plain memory that reuse rewrites, which is
//     only safe once no reader can hold the node — exactly what two
//     epoch advances guarantee (every operation is bracketed by the
//     engine's ebr Begin/End).

// freshNode heap-allocates a node of the given kind (the pool's fresh
// callback), complete with its arrays: a leaf's slots, an internal
// node's keys and children.
func (h *Handle) freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	n.hdr.Bind(h.Clk)
	if leaf {
		n.slots = new([MaxB]htm.Pair)
	} else {
		n.allocArrays(h.Clk)
	}
	return n
}

// newLeaf builds a leaf holding pairs (sorted) from the pool, in identity
// order: pair i in slot i. Only the order word and the first len(pairs)
// slots are (re-)initialized. Only a leaf that skipped its grace period
// (stale) pays version-advancing stores. A stale reader of it — one whose
// snapshot predates the leaf's removal — reads ord before any slot, so it
// either aborts there (the Recycle advanced ord's version past its
// snapshot) or read ord in the leaf's previous life and reaches slots
// through that life's perm: a slot below the recycled size aborts it the
// same way, and a slot beyond keeps the value and version it had, which
// is exactly what the reader's snapshot is entitled to see.
func (h *Handle) newLeaf(pairs []kv) *Node {
	n, stale := h.Pool.Take(true)
	if stale {
		n.hdr.Recycle()
		n.ord.Recycle(h.Clk, permIdentity, uint64(len(pairs)))
		for i, p := range pairs {
			n.slots[i].Recycle(h.Clk, p.k, p.v)
		}
		return n
	}
	n.hdr.Reset()
	n.ord.Init(permIdentity, uint64(len(pairs)))
	for i, p := range pairs {
		n.slots[i].Init(p.k, p.v)
	}
	return n
}

// newInternal builds an internal node from the pool; its arrays hold
// any degree up to MaxB. Internal nodes only ever reach the pool after a
// grace period, so no reader holds them here and the plain rewrites are
// safe.
func (h *Handle) newInternal(keys []uint64, children []*Node, tagged bool) *Node {
	n, _ := h.Pool.Take(false)
	n.hdr.Reset()
	n.fill(keys, children, tagged)
	return n
}

// setPair writes a leaf cell in the body's transaction, or, with a nil
// tx (TLE's locked body), stores it at once, stamped with a tick of the
// tree's clock.
func (h *Handle) setPair(tx *htm.Tx, c *htm.Pair, a, b uint64) {
	if tx == nil {
		c.Store(h.Clk, a, b)
		return
	}
	c.Set(tx, a, b)
}
