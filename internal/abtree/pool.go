package abtree

import (
	"htmtree/internal/htm"
	"htmtree/internal/nodepool"
)

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
//   - Internal nodes always wait out a grace period: their routing-key
//     array and the length of their child array are plain memory that
//     reuse rewrites, which is only safe once no reader can hold the
//     node — exactly what two epoch advances guarantee (every operation
//     is bracketed by the engine's ebr Begin/End).

// ReclaimStats counts a handle's node-pool activity. Exported for tests
// and diagnostics.
type ReclaimStats = nodepool.Stats

// ReclaimStats returns a snapshot of the handle's pool counters.
func (h *Handle) ReclaimStats() ReclaimStats { return h.pool.Stats() }

// PoolSize returns the number of nodes currently in the handle's free
// lists (white-box tests).
func (h *Handle) PoolSize() int { return h.pool.Size() }

// freshNode heap-allocates a node of the given kind (the pool's fresh
// callback): a leaf complete with its slot array, an internal node as a
// shell whose arrays newInternal sizes and binds.
func (h *Handle) freshNode(leaf bool) *Node {
	n := &Node{leaf: leaf}
	n.hdr.Bind(h.clk)
	if leaf {
		n.bindLeaf(h.clk)
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
	n, stale := h.pool.Take(true)
	if stale {
		n.hdr.Recycle()
		n.ord.Recycle(permIdentity, uint64(len(pairs)))
		for i, p := range pairs {
			n.slots[i].Recycle(p.k, p.v)
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

// newInternal builds an internal node from the pool, reusing the pooled
// node's key and child arrays when they have capacity (a fresh node's
// have none: a node has at least one child). Internal nodes
// only ever reach the pool after a grace period, so no reader holds
// them here and the plain rewrites are safe.
func (h *Handle) newInternal(keys []uint64, children []*Node, tagged bool) *Node {
	n, _ := h.pool.Take(false)
	n.tagged = tagged
	n.hdr.Reset()
	if cap(n.keys) >= len(keys) && cap(n.children) >= len(children) {
		n.keys = n.keys[:len(keys)]
		copy(n.keys, keys)
		n.children = n.children[:len(children)]
		for i, c := range children {
			n.children[i].Init(c)
		}
		return n
	}
	// Allocate the arrays at full capacity so every future reuse of this
	// node fits any degree up to b, binding every cell up to capacity —
	// reuse reslices into it and must find bound cells.
	b := h.t.cfg.B
	ck, cc := b-1, b
	if len(keys) > ck {
		ck = len(keys)
	}
	if len(children) > cc {
		cc = len(children)
	}
	n.keys = append(make([]uint64, 0, ck), keys...)
	full := make([]htm.Ref[Node], cc)
	for i := range full {
		full[i].Bind(h.clk)
	}
	n.children = full[:len(children)]
	for i, c := range children {
		n.children[i].Init(c)
	}
	return n
}

// beginAttempt, remove and settle delegate to the shared pool (see
// nodepool's attempt-lifecycle contract).
func (h *Handle) beginAttempt()            { h.pool.BeginAttempt() }
func (h *Handle) remove(n *Node)           { h.pool.Remove(n) }
func (h *Handle) settle(path htm.PathKind) { h.pool.Settle(path) }
