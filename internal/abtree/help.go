package abtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// Helpable-fallback support (engine/help.go): the announced-descriptor
// bodies below are the fallback template operations of ops.go with two
// changes. Arguments come from the descriptor — never from the handle's
// argument scratch, which belongs to whatever operation this thread
// itself has in flight — and the update phase splits SCXO into build /
// Install / Run so the SCX record is published in the descriptor before
// it executes: the install CAS is the operation's claim, and whichever
// thread installed the record retires the removed nodes exactly once.
//
// The handle's merge/split buffers (buf, kbuf, cbuf) are reused here:
// helping only happens at attempt boundaries (before a transactional
// attempt begins, or while blocked on the fallback word), never in the
// middle of this thread's own body, so the scratch is dead at every
// helping point.
//
// A helped delete reports the underfull/tagged violation it may create
// through HelpAttempt.NeedFix; the announcing owner — not the helper —
// runs the fix loop after the engine returns, since rebalancing steps
// are ordinary engine operations a helper cannot nest.

// helpExec runs one fallback attempt for the announced descriptor using
// this handle's pools and reclamation context (engine.Thread.SetHelpExec).
func (h *Handle) helpExec(d *engine.HelpDesc) {
	switch d.Kind {
	case engine.HelpInsert:
		h.t.helpInsert(h, d)
	case engine.HelpDelete:
		h.t.helpDelete(h, d)
	}
}

// finishRecord is the shared tail of a help body: install the prepared
// attempt, and if this thread won the claim, run the record and — on
// commit — retire the removed nodes and settle the pool state. A lost
// install race discards the attempt's unpublished allocations so they
// cannot be mistaken for published nodes by a later Settle.
//
// Aggregate maintenance: when the record changes key content, the
// whole install/run/fixup span takes the aggVer bracket. The bracket
// must be held before Install — once installed, any thread's LLX can
// help perform the swing, so acquiring first is what pins every
// possible swing instant inside the bracket — and only the installing
// thread (the one whose Install succeeded) applies the path fixup,
// giving exactly-once semantics. A value-update insert replaces the
// leaf with identical key content and needs no bracket.
func (h *Handle) finishRecord(d *engine.HelpDesc, att *engine.HelpAttempt, removed ...*Node) {
	needAgg := att.Rec != nil && !(d.Kind == engine.HelpInsert && att.Found)
	if needAgg {
		h.t.aggAcquire()
	}
	if !d.Install(att) {
		if needAgg {
			h.t.aggRelease()
		}
		h.beginAttempt() // discard this attempt's unpublished nodes
		return
	}
	if att.Rec.Run() {
		if needAgg {
			kind := aggInsert
			if d.Kind == engine.HelpDelete {
				kind = aggDelete
			}
			h.t.aggFixupNonTx(h, kind, d.Key)
		}
		for _, n := range removed {
			h.remove(n)
		}
		h.settle(htm.PathFallback)
	}
	if needAgg {
		h.t.aggRelease()
	}
}

// helpInsert is insertBody's template mode (ops.go) with descriptor
// arguments and the split SCX. It performs one attempt; the engine's
// executor loop re-drives it until an attempt is installed and terminal.
func (t *Tree) helpInsert(h *Handle, d *engine.HelpDesc) {
	h.beginAttempt()
	key, val := d.Key, d.Val
	b := t.cfg.B
	_, p, u, _, uIdx := t.searchLeaf(nil, key)

	var uCur *Node
	pi, st := llxscx.LLX(nil, &p.hdr, func() { uCur = p.children[uIdx].Get(nil) })
	if st != llxscx.StatusOK {
		return
	}
	if uCur != u {
		return // the tree changed under us; re-search
	}
	ui, st := llxscx.LLX(nil, &u.hdr, func() { readLeaf(nil, u, &h.buf) })
	if st != llxscx.StatusOK {
		return
	}

	v := []*llxscx.Hdr{&p.hdr, &u.hdr}
	infos := []*llxscx.Info{pi, ui}
	r := []*llxscx.Hdr{&u.hdr}
	fld := &p.children[uIdx]

	pos, found := findInBuf(h.buf, key)
	if found {
		oldVal := h.buf[pos].v
		h.buf[pos].v = val
		rec := llxscx.NewRecord(v, infos, r, fld, u, h.newLeaf(h.buf))
		h.finishRecord(d, &engine.HelpAttempt{Rec: rec, Val: oldVal, Found: true}, u)
		return
	}
	h.buf = insertAt(h.buf, pos, kv{k: key, v: val})
	if len(h.buf) <= b {
		rec := llxscx.NewRecord(v, infos, r, fld, u, h.newLeaf(h.buf))
		h.finishRecord(d, &engine.HelpAttempt{Rec: rec}, u)
		return
	}
	// Full leaf: replace u with a tagged parent over two half leaves.
	lo := (len(h.buf) + 1) / 2
	left := h.newLeaf(h.buf[:lo])
	right := h.newLeaf(h.buf[lo:])
	h.kbuf = append(h.kbuf[:0], h.buf[lo].k)
	h.cbuf = append(h.cbuf[:0], left, right)
	np := h.newInternal(h.kbuf, h.cbuf, p != t.entry)
	setAggsFromPairs(np, h.buf)
	// finishRecord's path fixup applies +key to every ancestor of the new
	// leaf, np included: publish np with the pre-insert sum/count (see
	// insertBody).
	np.agg.Init(sumPairs(h.buf)-key, uint64(len(h.buf)-1))
	rec := llxscx.NewRecord(v, infos, r, fld, u, np)
	h.finishRecord(d, &engine.HelpAttempt{Rec: rec, NeedFix: np.tagged}, u)
}

// helpDelete is deleteBody's template mode (ops.go) with descriptor
// arguments and the split SCX. An absent key installs a terminal no-op
// attempt (Rec == nil): absence was determined while the fallback word
// excluded fast-path commits, so it is the operation's linearization.
func (t *Tree) helpDelete(h *Handle, d *engine.HelpDesc) {
	h.beginAttempt()
	key := d.Key
	a := t.cfg.A
	_, p, u, _, uIdx := t.searchLeaf(nil, key)

	var uCur *Node
	pi, st := llxscx.LLX(nil, &p.hdr, func() { uCur = p.children[uIdx].Get(nil) })
	if st != llxscx.StatusOK {
		return
	}
	if uCur != u {
		return
	}
	ui, st := llxscx.LLX(nil, &u.hdr, func() { readLeaf(nil, u, &h.buf) })
	if st != llxscx.StatusOK {
		return
	}
	pos, found := findInBuf(h.buf, key)
	if !found {
		d.Install(&engine.HelpAttempt{})
		return
	}
	oldVal := h.buf[pos].v
	h.buf = append(h.buf[:pos], h.buf[pos+1:]...)
	needFix := p != t.entry && len(h.buf) < a
	rec := llxscx.NewRecord(
		[]*llxscx.Hdr{&p.hdr, &u.hdr}, []*llxscx.Info{pi, ui},
		[]*llxscx.Hdr{&u.hdr}, &p.children[uIdx], u, h.newLeaf(h.buf))
	h.finishRecord(d, &engine.HelpAttempt{Rec: rec, Val: oldVal, Found: true, NeedFix: needFix}, u)
}
