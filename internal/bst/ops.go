package bst

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// prims is the shared LLX/SCX mode switch (engine/prims.go) over this
// tree's nodes.
type prims = engine.Prims[Node]

// prims returns the context of one attempt at the handle's own operation:
// arguments from, and the result into, the handle scratch.
func (h *Handle) prims(m engine.Mode, tx *htm.Tx) *prims {
	return &prims{Th: h.e, Tx: tx, Mode: m, Key: h.argKey, Val: h.argVal, Res: &h.res}
}

// buildOps constructs the per-handle engine ops once, wiring each
// algorithm's path to the one body of its operation — the path only
// chooses the mode the body's primitives run in — and to the handle's
// scratch argument/result fields.
func (h *Handle) buildOps() {
	t := h.t
	h.insertOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.insertBody(h, h.prims(engine.ModeFast, tx)) },
		Middle:   func(tx *htm.Tx) { t.insertBody(h, h.prims(engine.ModeMiddle, tx)) },
		Fallback: func() bool { return t.insertBody(h, h.prims(engine.ModeFallback, nil)) },
		SCXHTM:   func() bool { return t.insertBody(h, h.prims(engine.ModeSCXHTM, nil)) },
		Update:   true,
	}
	h.deleteOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.deleteBody(h, h.prims(engine.ModeFast, tx)) },
		Middle:   func(tx *htm.Tx) { t.deleteBody(h, h.prims(engine.ModeMiddle, tx)) },
		Fallback: func() bool { return t.deleteBody(h, h.prims(engine.ModeFallback, nil)) },
		SCXHTM:   func() bool { return t.deleteBody(h, h.prims(engine.ModeSCXHTM, nil)) },
		Update:   true,
	}
	// The read-only operations have one transactional body, so they leave
	// Middle nil (engine.Op.Middle): nothing in them needs instrumenting
	// to run beside fallback-path SCXs. Under the TLE lock every operation
	// runs its Fast body with a nil tx (engine.Op.Fast), the sequential
	// code of Figure 13.
	h.searchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.searchBody(tx, h) },
		Fallback: func() bool { t.searchBody(nil, h); return true },
	}
	h.rqOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Fallback: func() bool { return t.rqFallback(h) },
	}
}

// Insert associates key with val (paper Figures 12/13).
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	h.argKey, h.argVal = key, val
	h.settle(h.e.Run(h.insertOp))
	return h.res.Val, h.res.Found
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.settle(h.e.Run(h.deleteOp))
	return h.res.Val, h.res.Found
}

// Search looks up key.
func (h *Handle) Search(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.e.Run(h.searchOp)
	return h.res.Val, h.res.Found
}

// RangeQuery appends all pairs with lo <= key < hi to out in ascending
// key order.
func (h *Handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	h.setRange(lo, hi)
	h.e.Run(h.rqOp)
	return append(out, h.rqOut...)
}

// setRange stores a range query's arguments in the handle scratch and its
// extent in the op as the call's footprint hint: the cells a scan reads
// grow with the keys it covers, and which extents fit a transaction is
// the site's to learn (engine.Op.Hint).
func (h *Handle) setRange(lo, hi uint64) {
	if hi > dict.MaxKey+1 {
		hi = dict.MaxKey + 1
	}
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.rqOp.Hint = 0
	if hi > lo {
		h.rqOp.Hint = hi - lo
	}
}

var _ dict.AggHandle = (*Handle)(nil)

// RangeAgg returns the aggregate tuple of the keys in [lo, hi): the
// range query's own op, folded (dict.Fold). The collected range stays in
// the handle scratch, so steady-state queries allocate nothing. The
// error is always nil.
func (h *Handle) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	h.setRange(lo, hi)
	h.e.Run(h.rqOp)
	return dict.Fold(h.rqOut), nil
}

// Pinned reads (dict.PinnedReader): the range query's own engine op, run
// as one first-path transaction at a snapshot of the tree's clock the
// caller read earlier (engine.Thread.RunAt). PinEnter takes the fresh
// clock value PinClock then reads (htm.Clock.Pin): commits leave the
// clock alone, so without it the snapshot would miss the newest ones.

var _ dict.PinnedReader = (*Handle)(nil)

func (h *Handle) Pinnable() bool   { return h.e.CanPin() }
func (h *Handle) PinEnter()        { h.e.EnterReclaim(); h.clk.Pin() }
func (h *Handle) PinExit()         { h.e.ExitReclaim() }
func (h *Handle) PinClock() uint64 { return h.clk.Now() }

func (h *Handle) RangeQueryAt(rv, lo, hi uint64, out []dict.KV) ([]dict.KV, dict.PinStatus) {
	h.setRange(lo, hi)
	st := h.e.RunAt(&h.rqOp, rv)
	if st != dict.PinCommitted {
		return out, st
	}
	return append(out, h.rqOut...), st
}

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("bst: key %d exceeds dict.MaxKey", key))
	}
}

// leafKey reads leaf l's key, which only pool recycling rewrites. A
// transaction validates the read against its snapshot without logging it
// (GetStable: one subscribed read per node, the pointer that led here).
// Outside one, the caller is on a non-transactional path, whose presence
// excludes immediate recycling, so a plain peek is sound.
func leafKey(tx *htm.Tx, l *Node) uint64 {
	if tx == nil {
		return l.key.Peek()
	}
	return l.key.GetStable(tx)
}

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
	h.beginAttempt()
	tx, key, val := pr.Tx, pr.Key, pr.Val
	_, p, l := t.search(tx, key)

	if pr.Mode == engine.ModeFast {
		// Sequential code of Figure 13 (also the TLE locked body, with a
		// nil tx).
		lk := l.key.GetStable(tx)
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
	if key >= p.key.Peek() {
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

	lk := leafKey(tx, l)
	if lk == key {
		// Replace the leaf by a new copy holding the new value: the
		// template may not modify immutable fields in place.
		*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
		if !pr.SCX(v, infos, []*llxscx.Hdr{&l.hdr}, fld, l, h.newLeaf(key, val)) {
			return false
		}
		h.remove(l)
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
	h.beginAttempt()
	tx, key := pr.Tx, pr.Key
	gp, p, l := t.search(tx, key)

	if pr.Mode == engine.ModeFast {
		// Sequential code of Figure 13.
		if l.key.GetStable(tx) != key {
			return pr.NotFound()
		}
		*pr.Res = engine.Result{Val: l.val.Get(tx), Found: true}
		// Reuse the sibling directly instead of copying it (Figure 13).
		var s *Node
		if key < p.key.Peek() {
			s = p.r.Get(tx)
		} else {
			s = p.l.Get(tx)
		}
		childRef(gp, key).Set(tx, s)
		p.hdr.SetMarked(tx)
		l.hdr.SetMarked(tx)
		h.remove(p)
		h.remove(l)
		return true
	}

	// Template code of Figure 12.
	if leafKey(tx, l) != key {
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
	if key >= gp.key.Peek() {
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
	if key >= p.key.Peek() {
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
		ns = h.newLeaf(leafKey(tx, s), s.val.Get(tx))
	} else {
		ns = h.newInternal(s.key.Peek(), sl, sr)
	}
	if !pr.SCX(
		[]*llxscx.Hdr{&gp.hdr, &p.hdr, &l.hdr, &s.hdr},
		[]*llxscx.Info{gi, pi, li, si},
		[]*llxscx.Hdr{&p.hdr, &l.hdr, &s.hdr},
		childRef(gp, key), p, ns) {
		return false
	}
	h.remove(p)
	h.remove(l)
	h.remove(s)
	return true
}

func (t *Tree) searchBody(tx *htm.Tx, h *Handle) {
	_, _, l := t.search(tx, h.argKey)
	if l.key.GetStable(tx) == h.argKey {
		h.res = engine.Result{Val: l.val.Get(tx), Found: true}
		return
	}
	h.res = engine.Result{}
}

// ---- range queries ----

// rqInTx collects the range inside a transaction (fast and middle
// paths; also the TLE locked body with tx == nil). A range too large for
// the transactional read capacity aborts and the engine redirects the
// operation toward the fallback path — the dynamic that defines the
// paper's heavy workloads.
func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.rqOut = h.rqOut[:0]
	t.rqWalkTx(tx, t.root.l.Get(tx), h)
}

func (t *Tree) rqWalkTx(tx *htm.Tx, n *Node, h *Handle) {
	if n.leaf {
		if k := n.key.GetStable(tx); k >= h.argLo && k < h.argHi && k < keyInf1 {
			h.rqOut = append(h.rqOut, dict.KV{Key: k, Val: n.val.Get(tx)})
		}
		return
	}
	k := n.key.Peek() // internal: grace-protected
	if h.argLo < k {
		t.rqWalkTx(tx, n.l.Get(tx), h)
	}
	if h.argHi > k {
		t.rqWalkTx(tx, n.r.Get(tx), h)
	}
}

// rqFallback collects the range with an LLX-validated DFS, restarting
// when a concurrent SCX invalidates a node (returns false so the engine
// retries).
func (t *Tree) rqFallback(h *Handle) bool {
	h.rqOut = h.rqOut[:0]
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
		// Fallback path: the presence indicator excludes immediate
		// recycling while this walk runs, so a plain peek is sound.
		if k := n.key.Peek(); k >= h.argLo && k < h.argHi && k < keyInf1 {
			h.rqOut = append(h.rqOut, dict.KV{Key: k, Val: n.val.Get(nil)})
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
	k := n.key.Peek()
	if h.argLo < k && !t.rqWalkLLX(nl, h) {
		return false
	}
	if h.argHi > k && !t.rqWalkLLX(nr, h) {
		return false
	}
	return true
}
