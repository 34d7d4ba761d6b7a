package abtree

import (
	"runtime"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// Subtree aggregates (sum/count/min/max of keys), maintained inside the
// same commit that performs each structural or content change so that
// KeySum-class analytics descend in O(log n) instead of walking every
// leaf.
//
// Representation. Internal nodes carry three aggregate cells: agg, one
// htm.Pair holding (sum, count) — every leaf operation moves the two
// together, and one cell means one write-set entry, one commit lock and
// one version store per ancestor instead of two — plus aggMin and
// aggMax. Leaves carry only aggSum: a leaf's count is the size in its
// order word and its min/max are the keys at its first and last ranks,
// so no extra leaf state is needed. An empty subtree holds the
// sentinels min = ^0, max = 0 (no key is ^0 — dict.MaxKey is below it —
// and a real max of 0 coincides with the sentinel harmlessly: readers
// gate min/max on count > 0).
//
// Maintenance. Transactional paths (fast, middle, and the TLE locked
// body, which runs the fast-mode code under the lock) update the
// aggregates of every internal node on the leaf's search path inside
// the operation's transaction: sum and count via AddAtCommit — a
// write-set-only commutative delta, so concurrent updates through the
// same ancestor (including the root) never invalidate each other's
// snapshots — and min/max via a subscribed read plus a conditional
// write (inserts) or a recompute-on-boundary cascade (deletes).
// Non-transactional paths (the lock-free fallback, SCXHTM, and the
// helpable fallback's announced records) cannot ride a commit, so they
// bracket the SCX swing and a post-swing path fixup in the tree-level
// aggVer seqlock below. Rebalancing transformations are content-neutral
// (no ancestor deltas); their replacement nodes' aggregates are
// rebuilt from their children — immediately inside the transaction on
// transactional paths, deferred into the aggVer bracket on
// non-transactional ones (the LLX/SCX validation covers the replaced
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

// Empty-subtree sentinels for aggMin/aggMax.
const (
	aggEmptyMin = ^uint64(0)
	aggEmptyMax = uint64(0)
)

// aggKind tags the pending aggregate fixup a non-transactional leaf
// operation hands to its SCX bracket.
type aggKind uint8

const (
	aggNone aggKind = iota
	aggInsert
	aggDelete
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

// childAgg reads one child's aggregate tuple. Internal nodes hold the
// tuple in cells; leaves derive count/min/max from size and the slot
// array. min/max are the empty sentinels when count is 0.
func childAgg(tx *htm.Tx, c *Node) (sum, count, mn, mx uint64) {
	if c.leaf {
		perm, sz := c.ord.Get(tx)
		if sz == 0 {
			return c.aggSum.Get(tx), 0, aggEmptyMin, aggEmptyMax
		}
		mn, _ = c.slots[permAt(perm, 0)].Get(tx)
		mx, _ = c.slots[permAt(perm, int(sz)-1)].Get(tx)
		return c.aggSum.Get(tx), sz, mn, mx
	}
	sum, count = c.agg.Get(tx)
	return sum, count, c.aggMin.Get(tx), c.aggMax.Get(tx)
}

// childMin returns the smallest key in c's subtree (sentinel ^0 when
// empty); childMax symmetrically. Internal aggMin/aggMax hold the
// sentinels when empty, so no count read is needed — which matters in
// delete cascades, where the path child's agg cell has a pending
// AddAtCommit and must not be read back.
func childMin(tx *htm.Tx, c *Node) uint64 {
	if c.leaf {
		if perm, sz := c.ord.Get(tx); sz > 0 {
			k, _ := c.slots[permAt(perm, 0)].Get(tx)
			return k
		}
		return aggEmptyMin
	}
	return c.aggMin.Get(tx)
}

func childMax(tx *htm.Tx, c *Node) uint64 {
	if c.leaf {
		if perm, sz := c.ord.Get(tx); sz > 0 {
			k, _ := c.slots[permAt(perm, int(sz)-1)].Get(tx)
			return k
		}
		return aggEmptyMax
	}
	return c.aggMax.Get(tx)
}

// initAggs rebuilds n's aggregate cells from its children. Writes use
// Init: n is private until the swing that publishes it, and the swing
// bumps the parent pointer's version, so no reader can reach the cells
// with a stale snapshot. Reads go through tx when non-nil (subscribing
// them, so a concurrent commit under an untouched child invalidates
// this transaction) and are plain spin-reads inside an aggVer bracket
// otherwise (where nothing can commit).
func initAggs(tx *htm.Tx, n *Node) {
	var sum, count uint64
	mn, mx := aggEmptyMin, aggEmptyMax
	for i := range n.children {
		c := n.children[i].Get(tx)
		s, ct, lo, hi := childAgg(tx, c)
		sum += s
		count += ct
		if ct > 0 {
			if lo < mn {
				mn = lo
			}
			if hi > mx {
				mx = hi
			}
		}
	}
	n.agg.Init(sum, count)
	n.aggMin.Init(mn)
	n.aggMax.Init(mx)
}

// setAggsFromPairs initializes a private internal node's aggregates
// from the pair buffer its (equally private) leaf children were built
// from — the leaf-split case, where reading the children's cells back
// inside the transaction would be pure overhead.
func setAggsFromPairs(n *Node, pairs []kv) {
	var sum uint64
	for _, p := range pairs {
		sum += p.k
	}
	n.agg.Init(sum, uint64(len(pairs)))
	if len(pairs) == 0 {
		n.aggMin.Init(aggEmptyMin)
		n.aggMax.Init(aggEmptyMax)
		return
	}
	n.aggMin.Init(pairs[0].k)
	n.aggMax.Init(pairs[len(pairs)-1].k)
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

// aggCopy initializes dst's aggregates from src's tuple — the
// replacement-of-the-parent case: every rebalance transformation
// replaces the violating node's parent p with a subtree of identical
// key content, so p's own (subscribed) tuple is the replacement's, and
// reading it avoids touching the other new nodes' cells (whose
// recycled versions could spuriously abort the transaction).
func aggCopy(tx *htm.Tx, dst, src *Node) {
	s, ct, mn, mx := childAgg(tx, src)
	dst.agg.Init(s, ct)
	dst.aggMin.Init(mn)
	dst.aggMax.Init(mx)
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

// aggFrom sets dst's aggregates to src's tuple (dst replaces src with
// identical key content), with the same immediate/deferred split as
// aggInit. Use it whenever dst's children include other new nodes.
func (pr *prims) aggFrom(dst, src *Node) {
	if pr.Mode == engine.ModeFast || pr.Mode == engine.ModeMiddle {
		aggCopy(pr.Tx, dst, src)
		return
	}
	pr.h.pend = append(pr.h.pend, pendAgg{dst: dst, src: src})
}

// aggPlan records the aggregate fixup a non-transactional leaf
// operation needs after its swing.
func (pr *prims) aggPlan(kind aggKind, key uint64) {
	pr.aggKind, pr.aggKey = kind, key
}

// aggApplyInsert applies an insert's +key delta to every internal node
// on the recorded search path, inside the operation's transaction (tx
// is nil inside an aggVer bracket — the TLE locked body, and the
// post-swing fixup of a non-transactional path, aggFixupNonTx — where
// the cells take immediate non-transactional adds).
func aggApplyInsert(tx *htm.Tx, path []*Node, key uint64) {
	for _, n := range path {
		n.agg.AddAtCommit(tx, key, 1)
		if key < n.aggMin.Get(tx) {
			n.aggMin.Set(tx, key)
		}
		if key > n.aggMax.Get(tx) {
			n.aggMax.Set(tx, key)
		}
	}
}

// aggApplyDelete applies a delete's -key delta bottom-up along the
// recorded search path. min/max use recompute-on-boundary: the deleted
// key can be an ancestor's min (max) only if it was the path child's
// min (max), so the cascade is a prefix from the leaf upward. The path
// child's fresh min/max are carried in plain values (its agg cell
// has a pending AddAtCommit and must not be read back); siblings are
// read through their cells.
func aggApplyDelete(tx *htm.Tx, path []*Node, child *Node, key, cmin, cmax uint64) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		n.agg.AddAtCommit(tx, -key, ^uint64(0))
		newMin := n.aggMin.Get(tx)
		if key == newMin {
			newMin = cmin
			for j := range n.children {
				c := n.children[j].Get(tx)
				if c == child {
					continue
				}
				if v := childMin(tx, c); v < newMin {
					newMin = v
				}
			}
			if v := n.aggMin.Get(tx); v != newMin {
				n.aggMin.Set(tx, newMin)
			}
		}
		newMax := n.aggMax.Get(tx)
		if key == newMax {
			newMax = cmax
			for j := range n.children {
				c := n.children[j].Get(tx)
				if c == child {
					continue
				}
				if v := childMax(tx, c); v > newMax {
					newMax = v
				}
			}
			if v := n.aggMax.Get(tx); v != newMax {
				n.aggMax.Set(tx, newMax)
			}
		}
		child, cmin, cmax = n, newMin, newMax
	}
}

// aggFixupNonTx applies a leaf operation's aggregate deltas inside an
// aggVer bracket. The pre-bracket search path may contain nodes that
// were replaced since the search, so it re-descends by key with plain
// reads — the bracket freezes both structure and aggregates (no
// transaction can commit, and other non-transactional mutators
// serialize on the bracket), so the descent finds exactly the
// ancestors of the just-installed leaf.
func (t *Tree) aggFixupNonTx(h *Handle, kind aggKind, key uint64) {
	// Seqlock-writer fault seam: aggVer is odd and the fixup has not
	// run — an injected stall here holds every transactional reader
	// and writer of the tree in abort-retry for the duration (they
	// subscribe to aggVer), the worst case the PR 8 bracket design
	// must stay safe under.
	t.cfg.Engine.Faults.Hit(fault.PointAggFixup)
	path := h.path[:0]
	n := t.entry.children[0].Get(nil)
	for !n.leaf {
		path = append(path, n)
		n = n.children[childIndex(n, key)].Get(nil)
	}
	h.path = path
	if kind == aggInsert {
		aggApplyInsert(nil, path, key)
		return
	}
	// The leaf is the one the swing just installed: its min and max are
	// already the post-delete ones.
	aggApplyDelete(nil, path, n, key, childMin(nil, n), childMax(nil, n))
}

// ---- aggregate queries ----

// RangeAgg returns the sum/count/min/max of the keys in [lo, hi). The
// transactional path descends via the aggregate cells in O(log n)
// (O(1) for the whole-tree query: the root's cells answer it); paths
// without a transaction fall back to the LLX-validated leaf walk, the
// same traversal RangeQuery uses. Min is ^uint64(0) and Max is 0 when
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

// AggStats returns how many aggregate queries were answered by the
// O(log n) aggregate descent vs the O(range) leaf walk fallback.
func (t *Tree) AggStats() (fast, walk uint64) {
	return t.aggFastQ.Load(), t.aggWalkQ.Load()
}

// aggInTx answers the aggregate query inside a transaction, descending
// via the aggregate cells: a subtree fully inside [lo, hi) contributes
// its aggregate tuple without being entered; a partially covered leaf
// is walked key by key. The aggVer guard must be read before any
// aggregate cell (see the file comment).
func (t *Tree) aggInTx(tx *htm.Tx, h *Handle) {
	t.aggGuard(tx)
	h.resAgg = dict.Agg{Min: aggEmptyMin, Max: aggEmptyMax}
	t.aggDescend(tx, t.entry.children[0].Get(tx), 0, ^uint64(0), h)
}

func (t *Tree) aggDescend(tx *htm.Tx, n *Node, nlo, nhi uint64, h *Handle) {
	lo, hi := h.argLo, h.argHi
	if lo <= nlo && nhi <= hi {
		s, ct, mn, mx := childAgg(tx, n)
		h.resAgg.Merge(dict.Agg{Sum: s, Count: ct, Min: mn, Max: mx})
		return
	}
	if n.leaf {
		aggCollectLeaf(tx, n, h)
		return
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
		t.aggDescend(tx, n.children[i].Get(tx), clo, chi, h)
	}
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
