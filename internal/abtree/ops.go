package abtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// buildOps constructs the per-handle engine ops once: each update's and
// the rebalancing step's one body on every path (engine.TemplateOp), and
// each read-only operation's transactional and fallback bodies. The
// read-only operations leave Middle nil (engine.Op.Middle): nothing in
// them needs instrumenting to run beside fallback-path SCXs. Nor have
// they an SCX for a Section 4 attempt to accelerate (engine.Op.SCXHTM).
// Under the TLE lock every operation runs its Fast body with a nil tx
// (engine.Op.Fast).
func (h *Handle) buildOps() {
	t := h.t
	h.InsertOp = engine.TemplateOp(func(m engine.Mode, tx *htm.Tx) bool { return t.insertBody(h.prims(m, tx)) }, true)
	h.DeleteOp = engine.TemplateOp(func(m engine.Mode, tx *htm.Tx) bool { return t.deleteBody(h.prims(m, tx)) }, true)
	h.SearchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.searchBody(tx, h) },
		Fallback: func() bool { return t.searchFallback(h) },
	}
	h.RangeOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Fallback: func() bool { return t.rqFallback(h) },
	}
	// fixOp is not an Update: rebalancing steps restructure nodes but
	// never change the logical key/value content.
	h.fixOp = engine.TemplateOp(func(m engine.Mode, tx *htm.Tx) bool { return t.fixBody(h.prims(m, tx)) }, false)
}

// Insert associates key with val.
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	h.Update(&h.InsertOp, key, val)
	return h.fix()
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	h.Update(&h.DeleteOp, key, 0)
	return h.fix()
}

// fix repairs the violations an update left on its key's path, if any,
// and returns the update's result.
func (h *Handle) fix() (uint64, bool) {
	if h.Res.NeedFix {
		h.runFixLoop()
	}
	return h.Res.Val, h.Res.Found
}

// searchLeaf descends to the leaf covering key. It returns the
// grandparent (nil above the root), parent, leaf, the index of the
// parent within the grandparent, and the index of the leaf within the
// parent. The entry sentinel acts as the root's parent.
func (t *Tree) searchLeaf(tx *htm.Tx, key uint64) (gp, p, u *Node, pIdx, uIdx int) {
	p = t.entry
	u = p.children()[0].Get(tx)
	for !u.leaf {
		gp, pIdx = p, uIdx
		p = u
		uIdx = childIndex(p, key)
		u = p.children()[uIdx].Get(tx)
	}
	return gp, p, u, pIdx, uIdx
}

// leafFind locates key within leaf u: one read of the order word, then a
// binary search through it (at most 5 probes at b = 16). It returns the
// key's rank (or the rank it would be inserted at), the value stored with
// it and whether it is present, and the order word it searched — perm and
// size — so that no caller reads ord again.
func leafFind(tx *htm.Tx, u *Node, key uint64) (pos int, val uint64, found bool, perm uint64, size int) {
	perm, sz := u.ver.Get(tx, &u.ord)
	slots := u.slots()
	lo, hi := 0, int(sz)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, v := u.ver.Get(tx, &slots[permAt(perm, mid)])
		if k == key {
			return mid, v, true, perm, int(sz)
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, 0, false, perm, int(sz)
}

// readLeaf reads leaf u's pairs into buf (reset first) in ascending key
// order.
func readLeaf(tx *htm.Tx, u *Node, buf *[]kv) {
	*buf = (*buf)[:0]
	perm, sz := u.ver.Get(tx, &u.ord)
	slots := u.slots()
	for i := 0; i < int(sz); i++ {
		k, v := u.ver.Get(tx, &slots[permAt(perm, i)])
		*buf = append(*buf, kv{k: k, v: v})
	}
}

// insertBody implements Insert on every path. It returns false to
// request a retry (non-transactional modes); transactional modes abort
// instead.
func (t *Tree) insertBody(pr *prims) bool {
	h := pr.h
	h.Pool.BeginAttempt()
	key, val := pr.Key, pr.Val
	b := t.cfg.B
	_, p, u, _, uIdx := t.searchLeaf(pr.Tx, key)

	if pr.Mode == engine.ModeFast || pr.Mode == engine.ModeMiddle {
		// The transactional modes edit the leaf in place — the fast path's
		// node-creation saving (Section 6.2) — and the middle path tags it
		// for the fallback path's LLXs (EditInPlace).
		tx := pr.Tx
		slots := u.slots()
		pos, old, found, perm, sz := leafFind(tx, u, key)
		if found {
			pr.EditInPlace(&u.hdr)
			*pr.Res = engine.Result{Val: old, Found: true}
			u.ver.Set(tx, &slots[permAt(perm, pos)], key, val)
			return true
		}
		*pr.Res = engine.Result{}
		if sz < b {
			// Fill the first free slot and give it the key's rank: two
			// write-set entries under the leaf's one version word,
			// wherever in the leaf the key belongs.
			pr.EditInPlace(&u.hdr)
			perm = permInsert(perm, pos, sz)
			u.ver.Set(tx, &slots[permAt(perm, pos)], key, val)
			u.ver.Set(tx, &u.ord, perm, uint64(sz+1))
			return true
		}
		if pr.Mode == engine.ModeFast {
			// Full leaf: split, keeping u as the left child — only a
			// sibling and a parent are created (Section 6.2). The pairs that
			// stay keep their slots: truncating the size frees the upper
			// ranks, and when the new pair belongs to the left half it takes
			// the first of them.
			readLeaf(tx, u, &h.buf)
			h.buf = insertAt(h.buf, pos, kv{k: key, v: val})
			lo := (len(h.buf) + 1) / 2
			right := h.newLeaf(h.buf[lo:])
			if pos < lo {
				perm = permInsert(perm, pos, lo-1)
				u.ver.Set(tx, &slots[permAt(perm, pos)], key, val)
			}
			u.ver.Set(tx, &u.ord, perm, uint64(lo))
			h.kbuf = append(h.kbuf[:0], h.buf[lo].k)
			h.cbuf = append(h.cbuf[:0], u, right)
			np := h.newInternal(h.kbuf, h.cbuf, p != t.entry)
			p.children()[uIdx].Set(tx, np)
			pr.Res.NeedFix = np.tagged
			return true
		}
		// The middle path splits a full leaf by the template below: a
		// fallback reader may hold a snapshot of p that still leads to u,
		// and u, left reachable and unmarked with half its keys, would
		// hide the other half from it.
	}

	// Template modes: replace the leaf (or grow a split subtree).
	var uCur *Node
	pi := pr.LLX(&p.hdr, func() { uCur = p.children()[uIdx].Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	if uCur != u {
		pr.Fail() // the tree changed under us; re-search
		return false
	}
	ui := pr.LLX(&u.hdr, func() { readLeaf(pr.Tx, u, &h.buf) })
	if pr.Failed {
		return false
	}

	v := []*llxscx.Hdr{&p.hdr, &u.hdr}
	infos := []*llxscx.Info{pi, ui}
	r := []*llxscx.Hdr{&u.hdr}
	fld := &p.children()[uIdx]

	pos, found := findInBuf(h.buf, key)
	if found {
		*pr.Res = engine.Result{Val: h.buf[pos].v, Found: true}
		h.buf[pos].v = val
		if !pr.SCX(v, infos, r, fld, u, h.newLeaf(h.buf)) {
			return false
		}
		h.Pool.Remove(u)
		return true
	}
	*pr.Res = engine.Result{}
	h.buf = insertAt(h.buf, pos, kv{k: key, v: val})
	if len(h.buf) <= b {
		if !pr.SCX(v, infos, r, fld, u, h.newLeaf(h.buf)) {
			return false
		}
		h.Pool.Remove(u)
		return true
	}
	// Full leaf: replace u with a tagged parent over two half leaves —
	// three new nodes on the template paths (Section 6.2).
	lo := (len(h.buf) + 1) / 2
	left := h.newLeaf(h.buf[:lo])
	right := h.newLeaf(h.buf[lo:])
	h.kbuf = append(h.kbuf[:0], h.buf[lo].k)
	h.cbuf = append(h.cbuf[:0], left, right)
	np := h.newInternal(h.kbuf, h.cbuf, p != t.entry)
	pr.Res.NeedFix = np.tagged
	if !pr.SCX(v, infos, r, fld, u, np) {
		return false
	}
	h.Pool.Remove(u)
	return true
}

// deleteBody implements Delete on every path.
func (t *Tree) deleteBody(pr *prims) bool {
	h := pr.h
	h.Pool.BeginAttempt()
	key := pr.Key
	a := t.cfg.A
	_, p, u, _, uIdx := t.searchLeaf(pr.Tx, key)

	if pr.Mode == engine.ModeFast || pr.Mode == engine.ModeMiddle {
		tx := pr.Tx
		pos, old, found, perm, sz := leafFind(tx, u, key)
		if !found {
			return pr.NotFound()
		}
		// The only write to the leaf (and, on the middle path, its tag):
		// the key's slot goes back to the free list and keeps its
		// contents, which no rank names any more.
		pr.EditInPlace(&u.hdr)
		u.ver.Set(tx, &u.ord, permDelete(perm, pos, sz), uint64(sz-1))
		*pr.Res = engine.Result{Val: old, Found: true, NeedFix: p != t.entry && sz-1 < a}
		return true
	}

	var uCur *Node
	pi := pr.LLX(&p.hdr, func() { uCur = p.children()[uIdx].Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	if uCur != u {
		pr.Fail() // the tree changed under us; re-search
		return false
	}
	ui := pr.LLX(&u.hdr, func() { readLeaf(pr.Tx, u, &h.buf) })
	if pr.Failed {
		return false
	}
	pos, found := findInBuf(h.buf, key)
	if !found {
		return pr.NotFound()
	}
	oldVal := h.buf[pos].v
	h.buf = append(h.buf[:pos], h.buf[pos+1:]...)
	*pr.Res = engine.Result{Val: oldVal, Found: true, NeedFix: p != t.entry && len(h.buf) < a}
	if !pr.SCX(
		[]*llxscx.Hdr{&p.hdr, &u.hdr}, []*llxscx.Info{pi, ui},
		[]*llxscx.Hdr{&u.hdr}, &p.children()[uIdx], u, h.newLeaf(h.buf)) {
		return false
	}
	h.Pool.Remove(u)
	return true
}

// searchBody implements Search in a transaction, and under the TLE lock
// with a nil tx.
func (t *Tree) searchBody(tx *htm.Tx, h *Handle) {
	_, _, u, _, _ := t.searchLeaf(tx, h.Key)
	_, h.Res.Val, h.Res.Found, _, _ = leafFind(tx, u, h.Key)
}

// searchFallback implements Search on the fallback path. The middle path
// edits published leaves in place, so the leaf is read under an
// llxscx.LLXRead: a binary search through an order word from before an
// edit and slots from after it could miss a key that was present
// throughout. A failed or finalized snapshot asks for a retry from the
// root.
func (t *Tree) searchFallback(h *Handle) bool {
	_, _, u, _, _ := t.searchLeaf(nil, h.Key)
	return llxscx.LLXRead(&u.hdr, func() {
		_, h.Res.Val, h.Res.Found, _, _ = leafFind(nil, u, h.Key)
		t.cfg.Engine.Faults.Hit(fault.PointSearchLeaf)
	}) == llxscx.StatusOK
}

// findInBuf locates key in a sorted pair buffer.
func findInBuf(buf []kv, key uint64) (pos int, found bool) {
	for i, p := range buf {
		if p.k == key {
			return i, true
		}
		if p.k > key {
			return i, false
		}
	}
	return len(buf), false
}

// insertAt inserts p at position pos.
func insertAt(buf []kv, pos int, p kv) []kv {
	buf = append(buf, kv{})
	copy(buf[pos+1:], buf[pos:])
	buf[pos] = p
	return buf
}

// ---- range queries ----

// rqInTx collects [lo,hi) inside a transaction (fast/middle paths; TLE
// locked body when tx == nil).
func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.RestartRange()
	t.rqWalk(tx, t.entry.children()[0].Get(tx), h)
}

func (t *Tree) rqWalk(tx *htm.Tx, n *Node, h *Handle) {
	if n.leaf {
		rqCollectLeaf(tx, n, h)
		return
	}
	children := n.children()
	for i := range children {
		if rqChildOverlaps(n, i, h.Lo, h.Hi) {
			t.rqWalk(tx, children[i].Get(tx), h)
		}
	}
}

// rqChildOverlaps reports whether child i's routing range intersects
// [lo,hi).
func rqChildOverlaps(n *Node, i int, lo, hi uint64) bool {
	keys := n.keys()
	if i > 0 && keys[i-1] >= hi {
		return false
	}
	if i < len(keys) && keys[i] <= lo {
		return false
	}
	return true
}

func rqCollectLeaf(tx *htm.Tx, n *Node, h *Handle) {
	perm, sz := n.ver.Get(tx, &n.ord)
	slots := n.slots()
	for i := 0; i < int(sz); i++ {
		k, v := n.ver.Get(tx, &slots[permAt(perm, i)])
		if k >= h.Lo && k < h.Hi {
			h.Collect(k, v)
		}
	}
}

// rqFallback collects the range with the software walk: a DFS over the
// subtrees overlapping [h.Lo, h.Hi), left to right, that reads every
// internal node's children under an LLX (an SCX's update step writes
// them) and every leaf's pairs under an llxscx.LLXRead (none writes
// those). It reports false on any snapshot that is not StatusOK; the
// fallback loop then restarts it from the root.
func (t *Tree) rqFallback(h *Handle) bool {
	h.RestartRange()
	var root *Node
	if _, st := llxscx.LLX(nil, &t.entry.hdr, func() {
		root = t.entry.children()[0].Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	return walkLLX(root, h)
}

func walkLLX(n *Node, h *Handle) bool {
	if n.leaf {
		return llxscx.LLXRead(&n.hdr, func() { rqCollectLeaf(nil, n, h) }) == llxscx.StatusOK
	}
	var arr [MaxB]*Node
	snap, ok := snapshotChildrenLLX(n, &arr)
	if !ok {
		return false
	}
	for i, c := range snap {
		if rqChildOverlaps(n, i, h.Lo, h.Hi) && !walkLLX(c, h) {
			return false
		}
	}
	return true
}

// snapshotChildrenLLX reads n's child pointers within an LLX into the
// caller's array (a degree is at most MaxB, so the fallback scans keep
// their snapshots on the stack) and reports whether the LLX succeeded.
func snapshotChildrenLLX(n *Node, arr *[MaxB]*Node) ([]*Node, bool) {
	children := n.children()
	snap := arr[:len(children)]
	_, st := llxscx.LLX(nil, &n.hdr, func() {
		for i := range children {
			snap[i] = children[i].Get(nil)
		}
	})
	return snap, st == llxscx.StatusOK
}
