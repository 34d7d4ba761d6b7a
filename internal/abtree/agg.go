package abtree

import (
	"runtime"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// Subtree aggregates: the (sum, count) of the keys beneath every node,
// maintained inside the same commit that performs each structural or
// content change so that KeySum-class analytics descend in O(log n)
// instead of walking every leaf. Min and max are not maintained: a
// leaf-oriented tree that keeps subtree counts finds either by walking
// one spine through the children whose count is non-zero (subtreeEnd),
// and a query does that at most once each, where an update
// would pay for the cells on every ancestor, every time.
//
// Representation. An internal node carries one aggregate cell: agg, one
// htm.Pair holding (sum, count) — every leaf operation moves the two
// together, and one cell means one write-set entry, one commit lock and
// one version store per ancestor instead of two. A leaf carries only
// aggSum: its count is the size in its order word.
//
// Maintenance. Transactional paths (fast, middle, and the TLE locked
// body, which runs the fast-mode code under the lock) add the
// operation's delta to every internal node on the leaf's search path
// inside the operation's transaction, via AddAtCommit — a
// write-set-only commutative delta, so concurrent updates through the
// same ancestor (including the root) never invalidate each other's
// snapshots. Insert and delete apply it through the one aggApply, in the
// one order. Non-transactional paths (the lock-free fallback, SCXHTM,
// and the helpable fallback's announced records) cannot ride a commit,
// so they bracket the SCX swing and a post-swing path fixup in the
// tree-level aggVer seqlock below. Rebalancing transformations are
// content-neutral (no ancestor deltas); their replacement nodes'
// aggregates are rebuilt from their children — immediately inside the
// transaction on transactional paths, deferred into the aggVer bracket
// on non-transactional ones (the LLX/SCX validation covers the replaced
// nodes' headers, not their children's aggregate cells, so a middle-
// path commit under an untouched child could otherwise slip a delta in
// between the snapshot and the swing).
//
// The aggVer seqlock. aggVer is odd exactly while a non-transactional
// mutator is between its SCX swing and the completion of its aggregate
// fixup. Every transactional body — updates and aggregate queries —
// reads aggVer first and aborts while it is odd: writers that began
// earlier are killed by commit-time validation (the bracket's CAS
// ticks the version clock, forcing full read-set validation), and
// read-only transactions, which skip commit validation entirely, are
// exactly the reason the guard must be read before any aggregate cell
// (a query beginning mid-bracket could otherwise read post-swing
// structure with pre-fixup ancestor aggregates). Brackets serialize
// against each other on the CAS.

// What an aggregate query over no keys reports (dict.Agg).
const (
	aggEmptyMin = ^uint64(0)
	aggEmptyMax = uint64(0)
)

// aggAcquire takes the tree's aggregate seqlock (aggVer even -> odd).
// The successful CAS ticks the version clock, so every transactional
// writer that began earlier fails commit validation on its subscribed
// aggVer read.
func (t *Tree) aggAcquire() {
	for i := 0; ; i++ {
		v := t.aggVer.Peek()
		if v&1 == 0 && t.aggVer.CAS(nil, v, v+1) {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// aggRelease drops the seqlock (odd -> even). Only the bracket holder
// stores to aggVer while it is odd, so the Peek is exact.
func (t *Tree) aggRelease() {
	t.aggVer.Set(nil, t.aggVer.Peek()+1)
}

// aggGuard subscribes tx to the aggregate seqlock and aborts while a
// non-transactional aggregate fixup is in flight. Every transactional
// update and aggregate-query body calls it before touching the tree.
func (t *Tree) aggGuard(tx *htm.Tx) {
	if tx != nil && t.aggVer.Get(tx)&1 != 0 {
		tx.Abort(engine.CodeRetry)
	}
}

// subtreeAgg reads the (sum, count) of the keys in c's subtree: an
// internal node's agg cell, a leaf's aggSum and the size in its order
// word.
func subtreeAgg(tx *htm.Tx, c *Node) (sum, count uint64) {
	if c.leaf {
		_, count = c.ord.Get(tx)
		return c.aggSum.Get(tx), count
	}
	return c.agg.Get(tx)
}

// initAggs rebuilds n's aggregate cell from its children. The write uses
// Init: n is private until the swing that publishes it, and the swing
// bumps the parent pointer's version, so no reader can reach the cell
// with a stale snapshot. Reads go through tx when non-nil (subscribing
// them, so a concurrent commit under an untouched child invalidates
// this transaction) and are plain spin-reads inside an aggVer bracket
// otherwise (where nothing can commit).
func initAggs(tx *htm.Tx, n *Node) {
	var sum, count uint64
	for i := range n.children {
		s, ct := subtreeAgg(tx, n.children[i].Get(tx))
		sum += s
		count += ct
	}
	n.agg.Init(sum, count)
}

// sumPairs returns the key sum of a pair buffer (leaf aggSum at
// construction).
func sumPairs(pairs []kv) uint64 {
	var s uint64
	for _, p := range pairs {
		s += p.k
	}
	return s
}

// aggCopy initializes dst's aggregate from src's — the
// replacement-of-the-parent case: every rebalance transformation
// replaces the violating node's parent p with a subtree of identical
// key content, so p's own (subscribed) cell is the replacement's, and
// reading it avoids touching the other new nodes' cells (whose
// recycled versions could spuriously abort the transaction).
func aggCopy(tx *htm.Tx, dst, src *Node) {
	dst.agg.Init(src.agg.Get(tx))
}

// pendAgg is a deferred aggregate rebuild (non-transactional paths run
// it inside the SCX bracket): initAggs(dst) when src is nil, aggCopy
// from src otherwise.
type pendAgg struct{ dst, src *Node }

// aggInit rebuilds a rebalance replacement node's aggregates from its
// children — which must all be pre-existing nodes: immediately on
// transactional paths, deferred into the SCX bracket on
// non-transactional ones (see the drift discussion atop this file).
func (pr *prims) aggInit(n *Node) {
	if pr.Mode == engine.ModeFast || pr.Mode == engine.ModeMiddle {
		initAggs(pr.Tx, n)
		return
	}
	pr.h.pend = append(pr.h.pend, pendAgg{dst: n})
}

// aggFrom sets dst's aggregates to src's (dst replaces src with
// identical key content), with the same immediate/deferred split as
// aggInit. Use it whenever dst's children include other new nodes.
func (pr *prims) aggFrom(dst, src *Node) {
	if pr.Mode == engine.ModeFast || pr.Mode == engine.ModeMiddle {
		aggCopy(pr.Tx, dst, src)
		return
	}
	pr.h.pend = append(pr.h.pend, pendAgg{dst: dst, src: src})
}

// aggApply adds a leaf operation's delta — (+key, +1) for an insert,
// (-key, -1) for a delete — to every internal node on the recorded
// search path, root first for both, so that no two bodies lock the
// cells they share in opposite orders at commit. With a transaction the
// adds are write-set entries that commit with it; tx is nil inside an
// aggVer bracket — the TLE locked body, and the post-swing fixup of a
// non-transactional path, aggFixupNonTx — where the cells take them
// immediately.
func aggApply(tx *htm.Tx, path []*Node, dSum, dCount uint64) {
	for _, n := range path {
		n.agg.AddAtCommit(tx, dSum, dCount)
	}
}

// aggUpdate is aggApply on whichever side of the swing the path's
// aggregate writes belong: inside the middle path's transaction, where
// they commit with it, or planned for the SCX bracket's fixup
// (prims.scx) on the non-transactional paths.
func (pr *prims) aggUpdate(dSum, dCount uint64) {
	if pr.Mode == engine.ModeMiddle {
		aggApply(pr.Tx, pr.h.path, dSum, dCount)
		return
	}
	pr.dSum, pr.dCount = dSum, dCount
}

// aggFixupNonTx applies a leaf operation's aggregate delta inside an
// aggVer bracket. The pre-bracket search path may contain nodes that
// were replaced since the search, so it re-descends by key with plain
// reads — the bracket freezes both structure and aggregates (no
// transaction can commit, and other non-transactional mutators
// serialize on the bracket), so the descent finds exactly the
// ancestors of the just-installed leaf.
func (t *Tree) aggFixupNonTx(pr *prims) {
	// Seqlock-writer fault seam: aggVer is odd and the fixup has not
	// run — an injected stall here holds every transactional reader
	// and writer of the tree in abort-retry for the duration (they
	// subscribe to aggVer), the worst case the PR 8 bracket design
	// must stay safe under.
	t.cfg.Engine.Faults.Hit(fault.PointAggFixup)
	t.locateForUpdate(pr, pr.Key) // pr.Tx is nil on every path that gets here
	aggApply(nil, pr.h.path, pr.dSum, pr.dCount)
}

// ---- aggregate queries ----

// RangeAgg returns the sum/count/min/max of the keys in [lo, hi). The
// transactional path descends via the aggregate cells in O(log n)
// (sum and count of the whole tree are the root's cell); paths without a
// transaction fall back to the LLX-validated leaf walk, the same
// traversal RangeQuery uses. Min is ^uint64(0) and Max is 0 when
// Count is 0. The error is always nil for an unsharded tree (the
// signature is shared with the sharded dictionary, where aggregate
// reads can be rejected by configuration).
var _ dict.AggHandle = (*Handle)(nil)

func (h *Handle) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	h.argLo, h.argHi = lo, hi
	if h.e.Run(h.aggOp) == htm.PathFallback {
		h.t.aggWalkQ.Add(1)
	} else {
		h.t.aggFastQ.Add(1)
	}
	return h.resAgg, nil
}

// aggInTx answers the aggregate query inside a transaction, descending
// via the aggregate cells: a subtree fully inside [lo, hi) contributes
// its (sum, count) without being entered; a partially covered leaf is
// walked key by key. The descent visits the range left to right, so the
// query's min is the smallest key of the first contributor and its max
// the largest of the last: where that is a covered subtree rather than a
// boundary leaf's key, one spine walk finds it (subtreeEnd: for the min
// as soon as the first contributor is met, for the max once the descent
// has shown that nothing follows the last). The aggVer guard must be read before
// any aggregate cell (see the file comment).
func (t *Tree) aggInTx(tx *htm.Tx, h *Handle) {
	t.aggGuard(tx)
	h.resAgg = dict.Agg{Min: aggEmptyMin, Max: aggEmptyMax}
	if last := t.aggDescend(tx, t.entry.children[0].Get(tx), 0, ^uint64(0), h, nil); last != nil {
		h.resAgg.Max = subtreeEnd(tx, last, true)
	}
}

// aggDescend folds the keys of n's subtree (routing range [nlo, nhi))
// that lie in the query's range into h.resAgg. It returns the rightmost
// covered subtree that contributed a key if no key to its right has
// been folded since — last, as passed in, when n contributes nothing.
func (t *Tree) aggDescend(tx *htm.Tx, n *Node, nlo, nhi uint64, h *Handle, last *Node) *Node {
	lo, hi := h.argLo, h.argHi
	if lo <= nlo && nhi <= hi {
		s, ct := subtreeAgg(tx, n)
		if ct == 0 {
			return last
		}
		if h.resAgg.Count == 0 {
			h.resAgg.Min = subtreeEnd(tx, n, false)
		}
		h.resAgg.Sum += s
		h.resAgg.Count += ct
		return n
	}
	if n.leaf {
		// A boundary leaf's keys lie to the right of everything folded so
		// far, and Merge keeps the largest as the max.
		before := h.resAgg.Count
		aggCollectLeaf(tx, n, h)
		if h.resAgg.Count != before {
			return nil
		}
		return last
	}
	for i := range n.children {
		if !rqChildOverlaps(n, i, lo, hi) {
			continue
		}
		clo, chi := nlo, nhi
		if i > 0 {
			clo = n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		}
		last = t.aggDescend(tx, n.children[i].Get(tx), clo, chi, h, last)
	}
	return last
}

// subtreeEnd returns the smallest key in n's subtree, or with max set
// the largest; the subtree must hold one. It follows the first (last)
// child whose count is non-zero — emptied leaves, and subtrees of them,
// stay linked until rebalancing joins them — down to a leaf, whose order
// word names the slot at rank 0 (size-1).
func subtreeEnd(tx *htm.Tx, n *Node, max bool) uint64 {
	for !n.leaf {
		i, step := 0, 1
		if max {
			i, step = len(n.children)-1, -1
		}
		for {
			c := n.children[i].Get(tx)
			if _, ct := subtreeAgg(tx, c); ct != 0 {
				n = c
				break
			}
			i += step
		}
	}
	perm, sz := n.ord.Get(tx)
	rank := 0
	if max {
		rank = int(sz) - 1
	}
	k, _ := n.slots[permAt(perm, rank)].Get(tx)
	return k
}

// aggCollectLeaf folds a leaf's in-range keys into the accumulator.
func aggCollectLeaf(tx *htm.Tx, n *Node, h *Handle) {
	perm, sz := n.ord.Get(tx)
	for i := 0; i < int(sz); i++ {
		k, _ := n.slots[permAt(perm, i)].Get(tx)
		if k >= h.argLo && k < h.argHi {
			h.resAgg.Merge(dict.Agg{Sum: k, Count: 1, Min: k, Max: k})
		}
	}
}

// aggFallback answers the aggregate query with an LLX-validated leaf
// walk (rqFallback's traversal, accumulating instead of collecting),
// restarting on any failed LLX. Child snapshots live on the stack
// (snapshotChildrenLLX), so steady-state queries stay allocation-free.
func (t *Tree) aggFallback(h *Handle) bool {
	h.resAgg = dict.Agg{Min: aggEmptyMin, Max: aggEmptyMax}
	var root *Node
	if _, st := llxscx.LLX(nil, &t.entry.hdr, func() {
		root = t.entry.children[0].Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	return t.aggWalkLLX(root, h)
}

func (t *Tree) aggWalkLLX(n *Node, h *Handle) bool {
	if n.leaf {
		ok := true
		if _, st := llxscx.LLX(nil, &n.hdr, func() { aggCollectLeaf(nil, n, h) }); st != llxscx.StatusOK {
			ok = false
		}
		return ok
	}
	var arr [MaxB]*Node
	snap, ok := snapshotChildrenLLX(n, &arr)
	if !ok {
		return false
	}
	for i, c := range snap {
		if rqChildOverlaps(n, i, h.argLo, h.argHi) {
			if !t.aggWalkLLX(c, h) {
				return false
			}
		}
	}
	return true
}
