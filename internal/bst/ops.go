package bst

import (
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// prims is the shared LLX/SCX mode switch (engine/prims.go) over this
// tree's nodes.
type prims = engine.Prims[Node]

// buildOps constructs the per-handle engine ops once: each update's one
// body on every path (engine.TemplateOp), and each read-only operation's
// transactional and fallback bodies. The read-only operations leave
// Middle nil (engine.Op.Middle): nothing in them needs instrumenting to
// run beside fallback-path SCXs. Under the TLE lock every operation runs
// its Fast body with a nil tx (engine.Op.Fast), the sequential code of
// Figure 13.
func (h *Handle) buildOps() {
	t := h.t
	h.InsertOp = engine.TemplateOp(func(m engine.Mode, tx *htm.Tx) bool {
		pr := h.Prims(m, tx)
		return t.insertBody(h, &pr)
	}, true)
	h.DeleteOp = engine.TemplateOp(func(m engine.Mode, tx *htm.Tx) bool {
		pr := h.Prims(m, tx)
		return t.deleteBody(h, &pr)
	}, true)
	h.SearchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.searchBody(tx, h) },
		Fallback: func() bool { t.searchBody(nil, h); return true },
	}
	h.RangeOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Fallback: func() bool { return t.rqFallback(h) },
	}
}

// Insert associates key with val (paper Figures 12/13).
func (h *Handle) Insert(key, val uint64) (uint64, bool) { return h.Update(&h.InsertOp, key, val) }

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) { return h.Update(&h.DeleteOp, key, 0) }

// newSubtree builds what an insert of an absent key puts in leaf l's
// place: an internal node over l (whose key is lk) and a new leaf.
func (h *Handle) newSubtree(l *Node, lk, key, val uint64) *Node {
	nl := h.newLeaf(key, val)
	if key < lk {
		return h.newInternal(lk, nl, l)
	}
	return h.newInternal(key, l, nl)
}

// insertBody implements Insert on every path. It returns false to
// request a retry (non-transactional modes); transactional modes abort
// instead.
func (t *Tree) insertBody(h *Handle, pr *prims) bool {
	h.Pool.BeginAttempt()
	tx, key, val := pr.Tx, pr.Key, pr.Val
	_, p, l := t.search(tx, key)

	if pr.Mode == engine.ModeFast {
		// Sequential code of Figure 13 (also the TLE locked body, with a
		// nil tx).
		lk := l.key
		if lk == key {
			// Directly update the value in place: the big fast-path win the
			// paper describes (no node creation).
			*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
			l.val.Set(tx, val)
			return true
		}
		*pr.Res = engine.Result{}
		childRef(p, key).Set(tx, h.newSubtree(l, lk, key, val))
		return true
	}

	// Template code of Figure 12.
	var left, right *Node
	pi := pr.LLX(&p.hdr, func() {
		left = p.l.Get(tx)
		right = p.r.Get(tx)
	})
	if pr.Failed {
		return false
	}
	l = left
	if key >= p.key {
		l = right
	}
	if !l.leaf {
		// The tree changed under us.
		pr.Fail()
		return false
	}
	li := pr.LLX(&l.hdr, nil)
	if pr.Failed {
		return false
	}

	v := []*llxscx.Hdr{&p.hdr, &l.hdr}
	infos := []*llxscx.Info{pi, li}
	fld := childRef(p, key)

	lk := l.key
	if lk == key {
		// Replace the leaf by a new copy holding the new value: the
		// template may not modify immutable fields in place.
		*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
		if !pr.SCX(v, infos, []*llxscx.Hdr{&l.hdr}, fld, l, h.newLeaf(key, val)) {
			return false
		}
		h.Pool.Remove(l)
		return true
	}
	*pr.Res = engine.Result{}
	return pr.SCX(v, infos, nil, fld, l, h.newSubtree(l, lk, key, val))
}

// deleteBody implements Delete on every path. A leaf holding a
// dictionary key always has a grandparent: the ∞₁ sentinel leaf is never
// removed, so the only leaf that can hang directly off the root is that
// sentinel, which no key matches.
func (t *Tree) deleteBody(h *Handle, pr *prims) bool {
	h.Pool.BeginAttempt()
	tx, key := pr.Tx, pr.Key
	gp, p, l := t.search(tx, key)

	if pr.Mode == engine.ModeFast {
		// Sequential code of Figure 13.
		if l.key != key {
			return pr.NotFound()
		}
		*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
		// Reuse the sibling directly instead of copying it (Figure 13).
		var s *Node
		if key < p.key {
			s = p.r.Get(tx)
		} else {
			s = p.l.Get(tx)
		}
		childRef(gp, key).Set(tx, s)
		p.hdr.SetMarked(tx)
		l.hdr.SetMarked(tx)
		h.Pool.Remove(p)
		h.Pool.Remove(l)
		return true
	}

	// Template code of Figure 12.
	if l.key != key {
		return pr.NotFound()
	}
	var gl, gr *Node
	gi := pr.LLX(&gp.hdr, func() {
		gl = gp.l.Get(tx)
		gr = gp.r.Get(tx)
	})
	if pr.Failed {
		return false
	}
	p2 := gl
	if key >= gp.key {
		p2 = gr
	}
	if p2 != p {
		pr.Fail()
		return false
	}
	var left, right *Node
	pi := pr.LLX(&p.hdr, func() {
		left = p.l.Get(tx)
		right = p.r.Get(tx)
	})
	if pr.Failed {
		return false
	}
	l2, s := left, right
	if key >= p.key {
		l2, s = right, left
	}
	if l2 != l {
		pr.Fail()
		return false
	}
	li := pr.LLX(&l.hdr, nil)
	if pr.Failed {
		return false
	}
	var sl, sr *Node
	si := pr.LLX(&s.hdr, func() {
		if !s.leaf {
			sl = s.l.Get(tx)
			sr = s.r.Get(tx)
		}
	})
	if pr.Failed {
		return false
	}
	*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
	// Replace p and l with a copy of the sibling (Figure 12).
	var ns *Node
	if s.leaf {
		ns = h.newLeaf(s.key, s.val.Get(tx))
	} else {
		ns = h.newInternal(s.key, sl, sr)
	}
	if !pr.SCX(
		[]*llxscx.Hdr{&gp.hdr, &p.hdr, &l.hdr, &s.hdr},
		[]*llxscx.Info{gi, pi, li, si},
		[]*llxscx.Hdr{&p.hdr, &l.hdr, &s.hdr},
		childRef(gp, key), p, ns) {
		return false
	}
	h.Pool.Remove(p)
	h.Pool.Remove(l)
	h.Pool.Remove(s)
	return true
}

func (t *Tree) searchBody(tx *htm.Tx, h *Handle) {
	_, _, l := t.search(tx, h.Key)
	if l.key == h.Key {
		h.Res = engine.Result{Val: l.val.Get(tx), Found: true}
		return
	}
	h.Res = engine.Result{}
}

// ---- range queries ----
//
// The range setter clamps h.Hi to dict.MaxKey+1 (engine.Handle), below
// both sentinel keys, so no walk collects a sentinel leaf.

// rqInTx collects the range inside a transaction (fast and middle
// paths; also the TLE locked body with tx == nil). A range too large for
// the transactional read capacity aborts and the engine redirects the
// operation toward the fallback path — the dynamic that defines the
// paper's heavy workloads.
func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.RestartRange()
	t.rqWalkTx(tx, t.root.l.Get(tx), h)
}

func (t *Tree) rqWalkTx(tx *htm.Tx, n *Node, h *Handle) {
	if n.leaf {
		if k := n.key; k >= h.Lo && k < h.Hi {
			h.Range = append(h.Range, dict.KV{Key: k, Val: n.val.Get(tx)})
		}
		return
	}
	k := n.key
	if h.Lo < k {
		t.rqWalkTx(tx, n.l.Get(tx), h)
	}
	if h.Hi > k {
		t.rqWalkTx(tx, n.r.Get(tx), h)
	}
}

// rqFallback collects the range with an LLX-validated DFS, restarting
// when a concurrent SCX invalidates a node (returns false so the engine
// retries).
func (t *Tree) rqFallback(h *Handle) bool {
	h.RestartRange()
	var root *Node
	if _, st := llxscx.LLX(nil, &t.root.hdr, func() {
		root = t.root.l.Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	return t.rqWalkLLX(root, h)
}

func (t *Tree) rqWalkLLX(n *Node, h *Handle) bool {
	if n.leaf {
		if k := n.key; k >= h.Lo && k < h.Hi {
			h.Range = append(h.Range, dict.KV{Key: k, Val: n.val.Get(nil)})
		}
		return true
	}
	var nl, nr *Node
	if _, st := llxscx.LLX(nil, &n.hdr, func() {
		nl = n.l.Get(nil)
		nr = n.r.Get(nil)
	}); st != llxscx.StatusOK {
		return false
	}
	k := n.key
	if h.Lo < k && !t.rqWalkLLX(nl, h) {
		return false
	}
	if h.Hi > k && !t.rqWalkLLX(nr, h) {
		return false
	}
	return true
}
