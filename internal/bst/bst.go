// Package bst implements the unbalanced external (leaf-oriented) binary
// search tree of Section 6.1 of Brown's "A Template for Implementing
// Fast Lock-free Trees Using HTM" (PODC 2017), runnable under every
// template algorithm the paper studies.
//
// The tree is leaf-oriented: dictionary keys live in leaves; internal
// nodes hold routing keys (keys strictly less than a node's key are in
// its left subtree) and always have exactly two children. Two sentinel
// keys ∞₁ < ∞₂ above dict.MaxKey frame the structure as in Ellen et
// al. (PODC 2010): the root is internal(∞₂) with right child leaf(∞₂),
// and the user tree (initially leaf(∞₁)) hangs off its left child.
//
// The handle is the template's (engine.Handle), which this package
// embeds: it keeps only the BST's updates and node constructors. Each
// update is written once (insertBody, deleteBody in ops.go) and the
// execution path only chooses the mode its primitives run in — the
// switch lives in engine/prims.go:
//
//   - engine.ModeFast: the sequential code of Figure 13, a branch of its
//     own at the top of the body because it is a different algorithm, not
//     a flavour of the template — it mutates leaf values in place and
//     reuses the sibling on deletion. Run inside a fast-path transaction,
//     or under the TLE lock with a nil transaction.
//   - the template code of Figure 12, the rest of the body, whose LLX and
//     SCX are transactional LLX and SCXInTx inside one transaction
//     (ModeMiddle, Section 5), the original lock-free LLXO/SCXO
//     (ModeFallback), or LLXO with the standalone HTM SCX (ModeSCXHTM,
//     Section 4).
//
// Updates search inside their transactions, as in Figures 12 and 13.
// The paper's Section 8 variant — search outside the transaction, then
// revalidate inside it — is not implemented: measured on this tree it
// did not beat the in-transaction search beyond run-to-run noise, and
// its non-transactional readers would rule out Section 9's immediate
// recycling of fast-path removals.
package bst

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// Sentinel keys (paper Section 6.1 / Ellen et al.).
const (
	keyInf1 = ^uint64(0) - 1 // ∞₁: largest key in the user subtree
	keyInf2 = ^uint64(0)     // ∞₂: root sentinel
)

// Node is a BST node. Internal nodes route by key; leaves carry a
// key/value pair. Only child pointers are mutable under the template;
// the fast path additionally mutates leaf values in place (val is
// therefore a cell) — which is safe precisely because the fast path
// never runs concurrently with the fallback path (Section 6.1).
//
// The key is a cell, not a plain field, because nodes are pooled and a
// recycled node's key changes. The two node kinds read it differently:
// internal nodes are reused only after a grace period (no reader can
// ever observe their rewrite), so routing reads use the plain-load
// Peek; leaves may recycle immediately after fast-path removals, so a
// transactional leaf-key read uses GetStable — a stale reader that
// still holds the leaf (obtained before its removal committed) aborts
// on the recycled key rather than misreport membership. The leaf flag
// stays plain — the pools are segregated by node kind, so it is
// write-once for the node's lifetime.
type Node struct {
	hdr  llxscx.Hdr
	key  htm.Word
	leaf bool
	val  htm.Word
	l, r htm.Ref[Node]
}

// Key returns the node's current key. Exported for tests.
func (n *Node) Key() uint64 { return n.key.GetStable(nil) }

// bind joins every cell of the node to the tree's clock domain. Called
// once per node lifetime (heap allocation), not per pool reuse.
func (n *Node) bind(clk *htm.Clock) {
	n.hdr.Bind(clk)
	n.key.Bind(clk)
	n.val.Bind(clk)
	n.l.Bind(clk)
	n.r.Bind(clk)
}

// newLeaf and newInternal build heap nodes for tree bootstrap; steady
// state operations allocate through the handle pools instead
// (Handle.newLeaf / Handle.newInternal in pool.go).
func newLeaf(clk *htm.Clock, key, val uint64) *Node {
	n := &Node{leaf: true}
	n.bind(clk)
	n.key.Init(key)
	n.val.Init(val)
	return n
}

func newInternal(clk *htm.Clock, key uint64, left, right *Node) *Node {
	n := &Node{}
	n.bind(clk)
	n.key.Init(key)
	n.l.Init(left)
	n.r.Init(right)
	return n
}

// Config configures a Tree.
type Config struct {
	// Algorithm selects the template implementation (default 3-path).
	Algorithm engine.Algorithm
	// HTM configures the simulated HTM.
	HTM htm.Config
	// Engine overrides attempt budgets and the fallback indicator; its
	// Algorithm field is ignored in favour of Algorithm above.
	Engine engine.Config
}

// Tree is a concurrent BST. Create with New; access through per-thread
// handles from NewHandle.
type Tree struct {
	tm   *htm.TM
	eng  *engine.Engine
	root *Node
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	ecfg := cfg.Engine
	ecfg.Algorithm = cfg.Algorithm
	tm := htm.New(cfg.HTM)
	t := &Tree{
		tm:  tm,
		eng: engine.New(ecfg, tm.Clock()),
	}
	t.root = newInternal(tm.Clock(), keyInf2,
		newLeaf(tm.Clock(), keyInf1, 0), newLeaf(tm.Clock(), keyInf2, 0))
	return t
}

// OpStats returns the engine's statistics snapshot
// (engine.StatsSource).
func (t *Tree) OpStats() engine.OpStats { return t.eng.Stats() }

// Handle is a per-thread handle to the tree: the template's handle
// (engine.Handle) over the BST's nodes, with the BST's updates. Its node
// pools (pool.go) make the point-operation hot path allocate nothing:
// steady-state inserts draw nodes from them and deletions feed them back
// through epoch-based reclamation.
type Handle struct {
	engine.Handle[Node]
	t *Tree
}

var (
	_ dict.Handle       = (*Handle)(nil)
	_ dict.AggHandle    = (*Handle)(nil)
	_ dict.PinnedReader = (*Handle)(nil)
)

// NewHandle registers a per-thread handle.
func (t *Tree) NewHandle() dict.Handle { return t.newHandle() }

func (t *Tree) newHandle() *Handle {
	h := &Handle{t: t}
	h.Register(t.eng, t.tm, func(n *Node) bool { return n.leaf }, h.freshNode)
	h.buildOps()
	return h
}

// childRef returns the child field of p that a search for key follows.
// p is always internal, and internal nodes are reused only after a
// grace period, so the routing key is immutable for as long as anyone
// can hold p: a plain Peek suffices (and keeps the descent at one
// validated read per level).
func childRef(p *Node, key uint64) *htm.Ref[Node] {
	if key < p.key.Peek() {
		return &p.l
	}
	return &p.r
}

// search descends from the root, returning the grandparent (nil when the
// leaf hangs directly off the root), parent and leaf on key's search
// path. With tx == nil the reads are plain atomic reads; inside a
// transaction they subscribe the caller.
func (t *Tree) search(tx *htm.Tx, key uint64) (gp, p, l *Node) {
	p = t.root
	l = p.l.Get(tx) // real keys are always < ∞₂, so the search goes left
	for !l.leaf {
		gp, p = p, l
		l = childRef(l, key).Get(tx)
	}
	return gp, p, l
}

// KeySum returns the sum and count of user keys. The walk runs inside
// the engine's epoch walk (engine.Engine.Walk), so concurrent updaters
// cannot recycle nodes under it: the sharding layer's consistent cuts
// call KeySum while updates run and rely on the monitor validation to
// discard racing results — which requires the racing walk itself to be
// memory-safe on pooled nodes.
func (t *Tree) KeySum() (sum, count uint64) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.leaf {
			if k := n.key.GetStable(nil); k < keyInf1 {
				sum += k
				count++
			}
			return
		}
		walk(n.l.Get(nil))
		walk(n.r.Get(nil))
	}
	t.eng.Walk(func() { walk(t.root) })
	return sum, count
}

// CheckInvariants validates the structural invariants of the tree
// (quiescent use only) and returns a descriptive error when one fails:
// internal nodes have two children, keys respect the routing rule, the
// sentinel frame is intact, and no reachable node is marked.
func (t *Tree) CheckInvariants() error {
	return checkNode(t.root, 0, keyInf2)
}

// checkNode verifies the subtree at n routes keys in [lo, hi] correctly
// (hi inclusive since ∞₂ == MaxUint64).
func checkNode(n *Node, lo, hi uint64) error {
	if n == nil {
		return fmt.Errorf("bst: nil node reachable")
	}
	key := n.key.GetStable(nil)
	if n.hdr.Marked(nil) {
		return fmt.Errorf("bst: reachable node with key %d is marked", key)
	}
	if key < lo || key > hi {
		return fmt.Errorf("bst: key %d outside routing range [%d,%d]", key, lo, hi)
	}
	if n.leaf {
		return nil
	}
	l, r := n.l.Get(nil), n.r.Get(nil)
	if l == nil || r == nil {
		return fmt.Errorf("bst: internal node %d missing a child", key)
	}
	if key == 0 {
		return fmt.Errorf("bst: internal node with key 0 (nothing can route left)")
	}
	if err := checkNode(l, lo, key-1); err != nil {
		return err
	}
	return checkNode(r, key, hi)
}
