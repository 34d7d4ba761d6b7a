package abtree

import (
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// maxFixIterations bounds the repair loop defensively. Cooperative
// executions finish in a handful of iterations (one per level of the
// chain a violation can climb); the bound only guards against unbounded
// helping under pathological contention.
const maxFixIterations = 1 << 17

// vKind classifies a balance violation (Section 6.2 / Jacobsen-Larsen).
type vKind uint8

const (
	vNone      vKind = iota // path is clean
	vUntagRoot              // tagged root: height grows legally
	vTag                    // tagged non-root: absorb or split-push-up
	vUnderfull              // degree < a non-root: join or share
)

// violation identifies the highest violation on a key's search path.
type violation struct {
	kind     vKind
	gp, p, n *Node
	pIdx     int // index of p within gp
	nIdx     int // index of n within p
}

// findViolation walks key's search path from the root and returns the
// first (highest) violation.
func (t *Tree) findViolation(tx *htm.Tx, key uint64) violation {
	a := t.cfg.A
	var gp *Node
	p := t.entry
	pIdx, nIdx := 0, 0
	n := p.children()[0].Get(tx)
	for {
		if n.leaf {
			if p != t.entry {
				if _, sz := n.ver.Get(tx, &n.ord); int(sz) < a {
					return violation{kind: vUnderfull, gp: gp, p: p, n: n, pIdx: pIdx, nIdx: nIdx}
				}
			}
			return violation{kind: vNone}
		}
		if p == t.entry {
			if n.tagged {
				return violation{kind: vUntagRoot, p: p, n: n}
			}
		} else {
			if n.tagged {
				return violation{kind: vTag, gp: gp, p: p, n: n, pIdx: pIdx, nIdx: nIdx}
			}
			if int(n.deg) < a {
				return violation{kind: vUnderfull, gp: gp, p: p, n: n, pIdx: pIdx, nIdx: nIdx}
			}
		}
		gp, pIdx = p, nIdx
		p = n
		nIdx = childIndex(p, key)
		n = p.children()[nIdx].Get(tx)
	}
}

// runFixLoop repairs violations on the handle's current key path until
// none remain (each repair step is its own template operation run
// through the engine, exactly as the paper prescribes).
func (h *Handle) runFixLoop() {
	for i := 0; i < maxFixIterations; i++ {
		h.fixMore = false
		h.Th.Run(h.fixOp)
		h.Pool.Settle()
		if !h.fixMore {
			return
		}
	}
}

// fixBody performs (at most) one rebalancing step for the highest
// violation on the key's path. It sets h.fixMore when the caller should
// look again (a violation was found, whether or not this attempt fixed
// it). Returns false to request a retry in fallback modes.
func (t *Tree) fixBody(pr *prims) bool {
	h := pr.h
	h.Pool.BeginAttempt()
	h.nodes.reset()
	h.keys.reset()
	vio := t.findViolation(pr.Tx, h.Key)
	if vio.kind == vNone {
		h.fixMore = false
		return true
	}
	h.fixMore = true
	switch vio.kind {
	case vUntagRoot:
		return t.fixUntagRoot(pr, vio)
	case vTag:
		return t.fixTag(pr, vio)
	default: // vUnderfull
		return t.fixUnderfull(pr, vio)
	}
}

// scratch hands out the slices one rebalancing step works in — child
// snapshots and the key and child sequences merged from them — from a
// backing array its handle keeps, so a step allocates nothing (newLeaf
// and newInternal copy what they are given). take carves off the next n
// elements as an empty slice of that capacity; reset, at the start of a
// step, makes the whole array available again. Running out replaces the
// array with a larger one; slices already handed out keep the old one.
type scratch[T any] struct{ buf []T }

func (s *scratch[T]) take(n int) []T {
	if len(s.buf)+n > cap(s.buf) {
		s.buf = make([]T, 0, 2*(cap(s.buf)+n))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo : lo+n]
}

// reset also zeroes what was handed out: the array lives as long as the
// handle and must not pin a finished step's nodes.
func (s *scratch[T]) reset() {
	clear(s.buf)
	s.buf = s.buf[:0]
}

// snapshotChildren reads n's children within an LLX.
func (pr *prims) snapshotChildren(n *Node) ([]*Node, *llxscx.Info, bool) {
	children := n.children()
	snap := pr.h.nodes.take(len(children))[:len(children)]
	info := pr.LLX(&n.hdr, func() {
		for i := range children {
			snap[i] = children[i].Get(pr.Tx)
		}
	})
	if pr.Failed {
		return nil, nil, false
	}
	return snap, info, true
}

// copyNode builds a fresh copy of n (content snapshot taken within an
// LLX), optionally overriding the tag.
func (pr *prims) copyNode(n *Node, tagged bool) (*Node, *llxscx.Info, bool) {
	if n.leaf {
		info := pr.LLX(&n.hdr, func() { readLeaf(pr.Tx, n, &pr.h.buf) })
		if pr.Failed {
			return nil, nil, false
		}
		return pr.h.newLeaf(pr.h.buf), info, true
	}
	snap, info, ok := pr.snapshotChildren(n)
	if !ok {
		return nil, nil, false
	}
	return pr.h.newInternal(n.keys(), snap, tagged), info, true
}

// fixUntagRoot replaces a tagged root with an untagged copy: the height
// increase becomes permanent.
func (t *Tree) fixUntagRoot(pr *prims, vio violation) bool {
	n := vio.n
	var cur *Node
	ei := pr.LLX(&t.entry.hdr, func() { cur = t.entry.children()[0].Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	if cur != n {
		pr.Fail()
		return false
	}
	nn, ni, ok := pr.copyNode(n, false)
	if !ok {
		return false
	}
	if !pr.SCX(
		[]*llxscx.Hdr{&t.entry.hdr, &n.hdr}, []*llxscx.Info{ei, ni},
		[]*llxscx.Hdr{&n.hdr}, &t.entry.children()[0], n, nn) {
		return false
	}
	pr.h.Pool.Remove(n)
	return true
}

// fixTag repairs a tagged non-root node n under parent p: if p has room,
// n's children are absorbed into p; otherwise p and n redistribute into
// two nodes under a new tagged parent and the violation moves up
// (split-push-up).
func (t *Tree) fixTag(pr *prims, vio violation) bool {
	b := t.cfg.B
	gp, p, n := vio.gp, vio.p, vio.n

	var pCur *Node
	gi := pr.LLX(&gp.hdr, func() { pCur = gp.children()[vio.pIdx].Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	if pCur != p {
		pr.Fail()
		return false
	}
	pSnap, pi, ok := pr.snapshotChildren(p)
	if !ok {
		return false
	}
	if vio.nIdx >= len(pSnap) || pSnap[vio.nIdx] != n {
		pr.Fail()
		return false
	}
	nSnap, ni, ok := pr.snapshotChildren(n)
	if !ok {
		return false
	}

	// Combined child/key sequences of p with n expanded in place.
	children := pr.h.nodes.take(len(pSnap) + len(nSnap) - 1)
	children = append(children, pSnap[:vio.nIdx]...)
	children = append(children, nSnap...)
	children = append(children, pSnap[vio.nIdx+1:]...)
	keys := pr.h.keys.take(len(children) - 1)
	keys = append(keys, p.keys()[:vio.nIdx]...)
	keys = append(keys, n.keys()...)
	keys = append(keys, p.keys()[vio.nIdx:]...)

	v := []*llxscx.Hdr{&gp.hdr, &p.hdr, &n.hdr}
	infos := []*llxscx.Info{gi, pi, ni}
	r := []*llxscx.Hdr{&p.hdr, &n.hdr}
	fld := &gp.children()[vio.pIdx]

	if len(children) <= b {
		// Absorb: one untagged replacement for p.
		repl := pr.h.newInternal(keys, children, false)
		if !pr.SCX(v, infos, r, fld, p, repl) {
			return false
		}
		pr.h.Pool.Remove(p)
		pr.h.Pool.Remove(n)
		return true
	}
	// Split-push-up: two halves under a new parent that inherits the tag
	// (unless it becomes the root).
	lo := (len(children) + 1) / 2
	left := pr.h.newInternal(keys[:lo-1], children[:lo], false)
	right := pr.h.newInternal(keys[lo:], children[lo:], false)
	np := pr.h.newInternal([]uint64{keys[lo-1]}, []*Node{left, right}, gp != t.entry)
	if !pr.SCX(v, infos, r, fld, p, np) {
		return false
	}
	pr.h.Pool.Remove(p)
	pr.h.Pool.Remove(n)
	return true
}

// fixUnderfull repairs an underfull non-root node n: it joins with or
// shares from an adjacent sibling. A tagged sibling is repaired first
// (its subtree is one level taller, so it cannot be joined directly).
func (t *Tree) fixUnderfull(pr *prims, vio violation) bool {
	b := t.cfg.B
	gp, p, n := vio.gp, vio.p, vio.n

	var pCur *Node
	gi := pr.LLX(&gp.hdr, func() { pCur = gp.children()[vio.pIdx].Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	if pCur != p {
		pr.Fail()
		return false
	}
	pSnap, pi, ok := pr.snapshotChildren(p)
	if !ok {
		return false
	}
	if vio.nIdx >= len(pSnap) || pSnap[vio.nIdx] != n {
		pr.Fail()
		return false
	}
	if len(pSnap) < 2 {
		// p is unary (transient mid-rebalance state): its own violation
		// sits above n's and must be repaired first; the path walk will
		// find it (p unary implies p is underfull: the join below never
		// leaves the root unary).
		pr.Fail()
		return false
	}

	sIdx := vio.nIdx + 1
	if vio.nIdx > 0 {
		sIdx = vio.nIdx - 1
	}
	s := pSnap[sIdx]
	if s.tagged {
		// Repair the taller, tagged sibling first.
		return t.fixTag(pr, violation{
			kind: vTag, gp: gp, p: p, n: s, pIdx: vio.pIdx, nIdx: sIdx,
		})
	}
	if s.leaf != n.leaf {
		// Levels disagree without a tag: a concurrent restructuring is
		// mid-flight somewhere; retry from a fresh search.
		pr.Fail()
		return false
	}

	li, ri := vio.nIdx, sIdx // left/right order of n and s within p
	if sIdx < vio.nIdx {
		li, ri = sIdx, vio.nIdx
	}
	left, right := pSnap[li], pSnap[ri]
	sep := p.keys()[li]

	// Snapshot both nodes' content, in child order (V order is fixed
	// top-down, left-to-right for the SCX freezing discipline), into one
	// left-then-right sequence: pairs for leaves, children and routing
	// keys (with p's separator between the two nodes') for internal
	// nodes.
	h := pr.h
	var all []kv
	var allC []*Node
	var allK []uint64
	var deg int // combined degree: len(all) or len(allC)
	var leftInfo, rightInfo *llxscx.Info
	if n.leaf {
		leftInfo = pr.LLX(&left.hdr, func() {
			readLeaf(pr.Tx, left, &h.buf)
			h.buf2 = append(h.buf2[:0], h.buf...)
		})
		if pr.Failed {
			return false
		}
		rightInfo = pr.LLX(&right.hdr, func() {
			readLeaf(pr.Tx, right, &h.buf)
			h.buf2 = append(h.buf2, h.buf...)
		})
		if pr.Failed {
			return false
		}
		all, deg = h.buf2, len(h.buf2)
	} else {
		var leftSnap, rightSnap []*Node
		leftSnap, leftInfo, ok = pr.snapshotChildren(left)
		if !ok {
			return false
		}
		rightSnap, rightInfo, ok = pr.snapshotChildren(right)
		if !ok {
			return false
		}
		allC = append(append(h.nodes.take(len(leftSnap)+len(rightSnap)), leftSnap...), rightSnap...)
		allK = append(append(append(h.keys.take(len(allC)-1), left.keys()...), sep), right.keys()...)
		deg = len(allC)
	}

	v := []*llxscx.Hdr{&gp.hdr, &p.hdr, &left.hdr, &right.hdr}
	infos := []*llxscx.Info{gi, pi, leftInfo, rightInfo}
	r := []*llxscx.Hdr{&p.hdr, &left.hdr, &right.hdr}
	fld := &gp.children()[vio.pIdx]

	var repl *Node
	if deg <= b {
		// Join left and right into one node.
		var m *Node
		if n.leaf {
			m = h.newLeaf(all)
		} else {
			m = h.newInternal(allK, allC, false)
		}
		if gp == t.entry && len(pSnap) == 2 {
			// p was the root and would become unary: collapse directly
			// (height shrinks). No step leaves a unary root, so the
			// tree needs no separate root-collapse repair.
			repl = m
		} else {
			nk := append(append(h.keys.take(len(p.keys())-1), p.keys()[:li]...), p.keys()[li+1:]...)
			nc := append(append(append(h.nodes.take(len(pSnap)-1), pSnap[:li]...), m), pSnap[ri+1:]...)
			repl = h.newInternal(nk, nc, false)
		}
	} else {
		// Share: redistribute so both nodes have at least a entries.
		lo := (deg + 1) / 2
		var nl, nr *Node
		var newSep uint64
		if n.leaf {
			nl = h.newLeaf(all[:lo])
			nr = h.newLeaf(all[lo:])
			newSep = all[lo].k
		} else {
			nl = h.newInternal(allK[:lo-1], allC[:lo], false)
			nr = h.newInternal(allK[lo:], allC[lo:], false)
			newSep = allK[lo-1]
		}
		nk := append(h.keys.take(len(p.keys())), p.keys()...)
		nk[li] = newSep
		nc := append(h.nodes.take(len(pSnap)), pSnap...)
		nc[li], nc[ri] = nl, nr
		repl = h.newInternal(nk, nc, false)
	}
	if !pr.SCX(v, infos, r, fld, p, repl) {
		return false
	}
	h.Pool.Remove(p)
	h.Pool.Remove(left)
	h.Pool.Remove(right)
	return true
}
