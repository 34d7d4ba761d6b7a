// Package abtree implements the relaxed (a,b)-tree of Section 6.2 of
// Brown's "A Template for Implementing Fast Lock-free Trees Using HTM"
// (PODC 2017), based on Jacobsen and Larsen's relaxed-balance variant of
// (a,b)-trees, runnable under every template algorithm the paper
// studies.
//
// The tree is leaf-oriented: key-value pairs live in leaves (up to b per
// leaf), internal nodes hold routing keys and between 2 and b children.
// Balance is relaxed: updates may leave violations — a *tagged* internal
// node (created by a leaf or internal split; the subtree is one level
// too tall) or an *underfull* node (degree below a) — which are repaired
// by separate rebalancing steps, each itself a template operation:
//
//   - root-untag: a tagged root loses its tag (height grows legally),
//   - absorb: a tagged node's children merge into its parent,
//   - split-push-up: a full parent and its tagged child redistribute
//     into two nodes under a new tagged parent (the tag moves up),
//   - join: an underfull node merges with a sibling; joining the root's
//     only two children makes the merged node the root (height shrinks),
//   - share: an underfull node rebalances keys with a sibling.
//
// Every update fixes the violations reachable on its key's search path
// before returning, so a quiescent tree is a proper (a,b)-tree: no tags,
// all degrees in [a,b] (root exempt), uniform leaf depth.
//
// Per the paper, the fast path modifies leaf key/value arrays in place
// (they are transactional cells) and creates nodes only on splits, while
// the fallback paths follow the template discipline of replacing nodes;
// rebalancing steps create new nodes on every path (Section 6.2's closing
// remark). The middle path runs the fast path's in-place edit for an
// update that stays inside its leaf, with a linked LLX of the leaf and a
// fresh tag in its info field in the same transaction
// (engine.Prims.EditInPlace), and splits a full leaf by the template.
//
// The handle is the template's (engine.Handle), which this package
// embeds: it keeps only the tree's updates, which run the repair loop,
// the rebalancing op and their scratch, and its node constructors.
package abtree

import (
	"fmt"
	"unsafe"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// Default degree bounds (paper Section 7: a=6, b=16 so a node spans four
// cache lines). b = 16 is also the largest a leaf's order word can
// address (MaxB, perm.go).
const (
	DefaultA = 6
	DefaultB = MaxB
)

// Node is an (a,b)-tree node's header, the one 64-byte line every
// visitor reads. A node is one allocation: this header, then its kind's
// arrays inline behind it — a leaf's slots (leafNode) or an internal
// node's keys and child cells (internalNode). Child cells point at the
// header. keys, children and slots are the only ways from a *Node to
// those arrays, and each is called only on a node of its kind; a node's
// kind never changes, because the pools keep one free list per kind.
//
// Internal nodes: deg children in the cells children(), routed by the
// deg-1 keys keys(); both arrays have the capacity of the largest
// degree, MaxB, so a pooled internal node is reused at any degree. The
// degree, the keys and tagged are immutable while the node is reachable:
// structural changes replace the node. The children are cells, which the
// fast path re-points in place.
//
// Leaves: slots is unsorted storage, one (key, value) entry per slot,
// and ord, the order word (perm.go), is the one entry that says which
// slots are live and in what key order: (perm, size), where perm's
// nibbles 0..size-1 name the slots in ascending key order and the
// nibbles from size up are the free slots. Every reader reads ord first
// and reaches the slots through permAt. All of them are entries of one
// htm.Block, the leaf's version word ver: hardware tracks a leaf's four
// lines, not its words, so a transaction reading any entry logs ver, and
// one writing several locks and stamps it once (an insert writes the
// first free slot and ord, a delete ord alone). They are transactional
// because the fast and middle paths mutate them in place; the fallback
// paths replace the leaf instead and read it only under an LLX or an
// llxscx.LLXRead, which the middle path's edits fail by retagging the
// leaf. slots returns an array of MaxB entries whatever b is, so the
// compiler can prove a slot index (a nibble of the order word) in range.
//
// The header holds the flags and the degree, none of them written after
// publication, then the leaf's version word and order word, which every
// in-place edit writes and every visitor of a leaf reads beside the leaf
// flag (an internal node leaves them zero), then the SCX header, which
// middle-path edits and template-path SCXs write and the fast path never
// touches. A leaf is the header and MaxB 16-byte slots, 320 bytes = 5 ×
// 64, its own size class; an internal node is the header, 15 keys and 16
// child cells, 440 bytes, in the 448-byte class (7 × 64). Objects of
// both classes start on line boundaries, so the header is one line and
// the arrays follow it with no pointer to load first.
// TestNodeFootprint pins the sizes and the offsets.
type Node struct {
	leaf   bool
	tagged bool
	deg    uint8
	ver    htm.Block // leaves only: over ord and the slots
	ord    htm.Pair  // leaves only
	hdr    llxscx.Hdr
}

// leafNode is a leaf's allocation.
type leafNode struct {
	Node
	slotArr [MaxB]htm.Pair
}

// internalNode is an internal node's allocation.
type internalNode struct {
	Node
	keyArr   [MaxB - 1]uint64
	childArr [MaxB]htm.Ref[Node]
}

// keys returns an internal node's routing keys.
func (n *Node) keys() []uint64 { return (*internalNode)(unsafe.Pointer(n)).keyArr[:n.deg-1] }

// children returns an internal node's child cells.
func (n *Node) children() []htm.Ref[Node] {
	return (*internalNode)(unsafe.Pointer(n)).childArr[:n.deg]
}

// slots returns a leaf's slot entries, under n.ver.
func (n *Node) slots() *[MaxB]htm.Pair { return &(*leafNode)(unsafe.Pointer(n)).slotArr }

// kv is a key/value pair in flight between nodes.
type kv struct {
	k, v uint64
}

// newLeaf builds the bootstrap leaf. Steady-state operations allocate
// through the handle pools instead (Handle.newLeaf in pool.go).
func newLeaf() *Node {
	n := freshNode(true)
	n.ord.Init(permIdentity, 0)
	return n
}

// fill writes an unpublished internal node's contents: the routing keys
// (len(children)-1 of them), the children and the tag.
func (n *Node) fill(keys []uint64, children []*Node, tagged bool) {
	n.tagged = tagged
	n.deg = uint8(len(children))
	copy(n.keys(), keys)
	cells := n.children()
	for i, c := range children {
		cells[i].Init(c)
	}
}

// childIndex returns the index of the child a search for key follows.
func childIndex(n *Node, key uint64) int {
	keys := n.keys()
	i := 0
	for i < len(keys) && key >= keys[i] {
		i++
	}
	return i
}

// Config configures a Tree.
type Config struct {
	// A and B are the degree bounds (defaults 6 and 16): A >= 2 and
	// 2A-1 <= B <= 16 (MaxB, the slots a leaf's order word addresses).
	A, B int
	// Algorithm selects the template implementation (default 3-path).
	Algorithm engine.Algorithm
	// HTM configures the simulated HTM.
	HTM htm.Config
	// Engine overrides attempt budgets and the fallback indicator.
	Engine engine.Config
}

// Tree is a concurrent relaxed (a,b)-tree.
type Tree struct {
	tm  *htm.TM
	eng *engine.Engine
	cfg Config
	// entry is the permanent entry point; entry.children()[0] is the root.
	entry *Node
}

// CheckDegree reports whether a and b (after defaulting zeros) are legal
// degree bounds. New panics with the same text.
func CheckDegree(a, b int) error {
	if a == 0 {
		a = DefaultA
	}
	if b == 0 {
		b = DefaultB
	}
	if a < 2 || b < 2*a-1 || b > MaxB {
		return fmt.Errorf("invalid degree bounds a=%d b=%d (need a>=2, 2a-1<=b<=%d)", a, b, MaxB)
	}
	return nil
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.A == 0 {
		cfg.A = DefaultA
	}
	if cfg.B == 0 {
		cfg.B = DefaultB
	}
	if err := CheckDegree(cfg.A, cfg.B); err != nil {
		panic("abtree: " + err.Error())
	}
	ecfg := cfg.Engine
	ecfg.Algorithm = cfg.Algorithm
	t := &Tree{
		tm:  htm.New(cfg.HTM),
		eng: engine.New(ecfg, nil),
		cfg: cfg,
	}
	t.entry = freshNode(false)
	t.entry.fill(nil, []*Node{newLeaf()}, false)
	return t
}

// OpStats returns the engine's statistics snapshot (engine.StatsSource).
func (t *Tree) OpStats() engine.OpStats { return t.eng.Stats() }

// Handle is a per-thread handle to the tree: the template's handle
// (engine.Handle) over the tree's nodes, with the tree's updates, its
// rebalancing op and their scratch. Steady-state operations draw leaves
// and internal nodes (with their key/child arrays) from its node pools
// (pool.go), and removals feed them back through epoch-based
// reclamation.
type Handle struct {
	engine.Handle[Node]
	t       *Tree
	fixMore bool

	// merge scratch: capacity b+1 so a full leaf plus one pair fits; buf2
	// holds two adjacent leaves' pairs while a join or share merges them.
	buf, buf2 []kv
	// split scratch for the fast path's routing-key/child argument
	// slices, so splits do not allocate slice headers per operation.
	kbuf []uint64
	cbuf []*Node
	// nodes and keys back a rebalancing step's snapshots and merged
	// sequences (rebalance.go scratch).
	nodes scratch[*Node]
	keys  scratch[uint64]

	fixOp engine.Op
}

var (
	_ dict.Handle       = (*Handle)(nil)
	_ dict.AggHandle    = (*Handle)(nil)
	_ dict.PinnedReader = (*Handle)(nil)
)

// NewHandle registers a per-thread handle.
func (t *Tree) NewHandle() dict.Handle { return t.newHandle() }

func (t *Tree) newHandle() *Handle {
	h := &Handle{
		t:    t,
		buf:  make([]kv, 0, t.cfg.B+1),
		kbuf: make([]uint64, 0, 1),
		cbuf: make([]*Node, 0, 2),
	}
	h.Register(t.eng, t.tm, func(n *Node) bool { return n.leaf }, freshNode)
	h.buildOps()
	return h
}

// KeySum returns the sum and count of keys. The walk runs inside the
// engine's epoch walk (engine.Engine.Walk), so concurrent updaters
// cannot recycle nodes under it — in particular, internal nodes' plain
// key/child arrays cannot be rewritten while the walk reads them. The
// sharding layer's consistent cuts rely on this: they call KeySum while
// updates run and discard racing results via monitor validation, which
// requires the racing walk itself to be memory-safe on pooled nodes.
func (t *Tree) KeySum() (sum, count uint64) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			perm, sz := n.ver.Get(nil, &n.ord)
			slots := n.slots()
			for i := 0; i < int(sz); i++ {
				k, _ := n.ver.Get(nil, &slots[permAt(perm, i)])
				sum += k
			}
			count += sz
			return
		}
		children := n.children()
		for i := range children {
			walk(children[i].Get(nil))
		}
	}
	t.eng.Walk(func() { walk(t.entry.children()[0].Get(nil)) })
	return sum, count
}

// checkOrd validates a leaf's order word: size within b, the first b
// nibbles of perm a permutation of the slots 0..b-1 (so no two ranks,
// live or free, share a slot), and the nibbles from b up still the
// identity a leaf is born with.
func checkOrd(perm, size uint64, b int) error {
	if size > uint64(b) {
		return fmt.Errorf("abtree: leaf size %d exceeds b=%d", size, b)
	}
	var seen uint
	for i := 0; i < MaxB; i++ {
		s := permAt(perm, i)
		if i >= b && s != i || i < b && (s >= b || seen&(1<<s) != 0) {
			return fmt.Errorf("abtree: leaf order word %#016x (size %d, b=%d): rank %d names slot %d", perm, size, b, i, s)
		}
		seen |= 1 << s
	}
	return nil
}

// CheckInvariants validates the tree structure (quiescent use only).
// With strict set it additionally demands full balance: no tagged
// nodes, all degrees within [a,b] (root exempt below a), and uniform
// leaf depth — which must hold whenever all updates have completed,
// since every update repairs the violations it creates.
//
// It always verifies every leaf's order word (checkOrd) and reads the
// leaf's keys through it, in rank order.
func (t *Tree) CheckInvariants(strict bool) error {
	root := t.entry.children()[0].Get(nil)
	leafDepth := -1
	var walk func(n *Node, lo, hi uint64, depth int, isRoot bool) error
	walk = func(n *Node, lo, hi uint64, depth int, isRoot bool) error {
		if n == nil {
			return fmt.Errorf("abtree: nil node reachable")
		}
		if n.hdr.Marked(nil) {
			return fmt.Errorf("abtree: reachable marked node at depth %d", depth)
		}
		if n.leaf {
			perm, size := n.ver.Get(nil, &n.ord)
			sz := int(size)
			if err := checkOrd(perm, size, t.cfg.B); err != nil {
				return err
			}
			if strict && !isRoot && sz < t.cfg.A {
				return fmt.Errorf("abtree: underfull leaf (size %d < a=%d)", sz, t.cfg.A)
			}
			prev := uint64(0)
			slots := n.slots()
			for i := 0; i < sz; i++ {
				k, _ := n.ver.Get(nil, &slots[permAt(perm, i)])
				if i > 0 && k <= prev {
					return fmt.Errorf("abtree: leaf keys unsorted (%d after %d)", k, prev)
				}
				if k < lo || k >= hi {
					return fmt.Errorf("abtree: leaf key %d outside routing range [%d,%d)", k, lo, hi)
				}
				prev = k
			}
			if strict {
				if leafDepth == -1 {
					leafDepth = depth
				} else if leafDepth != depth {
					return fmt.Errorf("abtree: leaves at depths %d and %d", leafDepth, depth)
				}
			}
			return nil
		}
		d := int(n.deg)
		if d < 1 {
			return fmt.Errorf("abtree: internal node with no children")
		}
		if d > t.cfg.B {
			return fmt.Errorf("abtree: internal degree %d exceeds b=%d", d, t.cfg.B)
		}
		if strict {
			if n.tagged {
				return fmt.Errorf("abtree: tagged node survived rebalancing")
			}
			if !isRoot && d < t.cfg.A {
				return fmt.Errorf("abtree: underfull internal node (degree %d < a=%d)", d, t.cfg.A)
			}
			if isRoot && d < 2 {
				return fmt.Errorf("abtree: unary root survived rebalancing")
			}
		}
		keys := n.keys()
		for i := 0; i < len(keys); i++ {
			if keys[i] < lo || keys[i] >= hi {
				return fmt.Errorf("abtree: routing key %d outside [%d,%d)", keys[i], lo, hi)
			}
			if i > 0 && keys[i] <= keys[i-1] {
				return fmt.Errorf("abtree: routing keys unsorted")
			}
		}
		childDepth := depth + 1
		if n.tagged {
			// A tagged node is a height violation: its subtree counts
			// one level shorter for depth purposes.
			childDepth = depth
		}
		children := n.children()
		for i := range children {
			clo, chi := lo, hi
			if i > 0 {
				clo = keys[i-1]
			}
			if i < len(keys) {
				chi = keys[i]
			}
			if err := walk(children[i].Get(nil), clo, chi, childDepth, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0, ^uint64(0), 0, true)
}
