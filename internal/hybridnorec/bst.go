package hybridnorec

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/htm"
)

// Sentinel keys, as in the template BST (Section 6.1 of the paper).
const (
	keyInf1 = ^uint64(0) - 1
	keyInf2 = ^uint64(0)
)

// node is an external-BST node; every shared field is a transactional
// cell because Hybrid NOrec instruments all shared accesses.
type node struct {
	key  uint64
	leaf bool
	val  htm.Word
	l, r htm.Ref[node]
}

func leafNode(key, val uint64) *node {
	n := &node{key: key, leaf: true}
	n.val.Init(val)
	return n
}

func internalNode(key uint64, left, right *node) *node {
	n := &node{key: key}
	n.l.Init(left)
	n.r.Init(right)
	return n
}

// BST is the unbalanced external binary search tree implemented on
// Hybrid NOrec for the Figure 17 comparison: sequential tree code
// wrapped in hybrid transactions, with every shared read and write going
// through the TM (the compiled-in instrumentation the paper describes).
type BST struct {
	tm   *TM
	root *node
}

// NewBST creates an empty tree over a Hybrid NOrec TM with the given
// hardware configuration.
func NewBST(cfg htm.Config, attempts int) *BST {
	return &BST{
		tm:   New(cfg, attempts),
		root: internalNode(keyInf2, leafNode(keyInf1, 0), leafNode(keyInf2, 0)),
	}
}

// TM exposes the underlying hybrid TM (for statistics).
func (t *BST) TM() *TM { return t.tm }

// Handle is a per-goroutine handle.
type Handle struct {
	t  *BST
	th *Thread

	resVal   uint64
	resFound bool
}

var _ dict.Handle = (*Handle)(nil)

// NewHandle registers a per-goroutine handle.
func (t *BST) NewHandle() dict.Handle {
	return &Handle{t: t, th: t.tm.NewThread()}
}

func childRef(p *node, key uint64) *htm.Ref[node] {
	if key < p.key {
		return &p.l
	}
	return &p.r
}

// search descends to the leaf for key inside tx.
func (t *BST) search(tx *Tx, key uint64) (gp, p, l *node) {
	p = t.root
	l = ReadRef(tx, &p.l)
	for !l.leaf {
		gp, p = p, l
		l = ReadRef(tx, childRef(l, key))
	}
	return gp, p, l
}

// Insert associates key with val.
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	t := h.t
	h.th.Atomic(func(tx *Tx) {
		_, p, l := t.search(tx, key)
		if l.key == key {
			h.resVal, h.resFound = tx.Read(&l.val), true
			tx.Write(&l.val, val)
			return
		}
		h.resVal, h.resFound = 0, false
		nl := leafNode(key, val)
		var ni *node
		if key < l.key {
			ni = internalNode(l.key, nl, l)
		} else {
			ni = internalNode(key, l, nl)
		}
		WriteRef(tx, childRef(p, key), ni)
	})
	return h.resVal, h.resFound
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	t := h.t
	h.th.Atomic(func(tx *Tx) {
		gp, p, l := t.search(tx, key)
		if l.key != key {
			h.resVal, h.resFound = 0, false
			return
		}
		h.resVal, h.resFound = tx.Read(&l.val), true
		if gp == nil {
			WriteRef(tx, &t.root.l, leafNode(keyInf1, 0))
			return
		}
		var s *node
		if key < p.key {
			s = ReadRef(tx, &p.r)
		} else {
			s = ReadRef(tx, &p.l)
		}
		WriteRef(tx, childRef(gp, key), s)
	})
	return h.resVal, h.resFound
}

// Search looks up key.
func (h *Handle) Search(key uint64) (uint64, bool) {
	checkKey(key)
	t := h.t
	h.th.Atomic(func(tx *Tx) {
		_, _, l := t.search(tx, key)
		if l.key == key {
			h.resVal, h.resFound = tx.Read(&l.val), true
			return
		}
		h.resVal, h.resFound = 0, false
	})
	return h.resVal, h.resFound
}

// RangeQuery appends all pairs with lo <= key < hi in ascending order.
func (h *Handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	t := h.t
	base := len(out)
	h.th.Atomic(func(tx *Tx) {
		out = out[:base]
		out = t.rqWalk(tx, ReadRef(tx, &t.root.l), lo, hi, out)
	})
	return out
}

func (t *BST) rqWalk(tx *Tx, n *node, lo, hi uint64, out []dict.KV) []dict.KV {
	if n.leaf {
		if n.key >= lo && n.key < hi && n.key < keyInf1 {
			out = append(out, dict.KV{Key: n.key, Val: tx.Read(&n.val)})
		}
		return out
	}
	if lo < n.key {
		out = t.rqWalk(tx, ReadRef(tx, &n.l), lo, hi, out)
	}
	if hi > n.key {
		out = t.rqWalk(tx, ReadRef(tx, &n.r), lo, hi, out)
	}
	return out
}

// KeySum returns the sum and count of keys (quiescent use only).
func (t *BST) KeySum() (sum, count uint64) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if n.key < keyInf1 {
				sum += n.key
				count++
			}
			return
		}
		walk(n.l.Get(nil))
		walk(n.r.Get(nil))
	}
	walk(t.root)
	return sum, count
}

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("hybridnorec: key %d exceeds dict.MaxKey", key))
	}
}
