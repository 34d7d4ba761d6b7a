package kcas

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// listNode is a sorted-list node. All mutable state lives in one Cell
// holding an immutable state object, so one k-CAS over the states of
// adjacent nodes expresses every list operation:
//
//	insert:  1-CAS  [pred.state -> state with next=new]
//	update:  1-CAS  [curr.state -> state with new value]
//	delete:  2-CAS  [pred.state -> state skipping curr,
//	                 curr.state -> marked state]
//
// Marking and unlinking happen in the same k-CAS, so marked nodes are
// never reachable.
type listNode struct {
	key uint64
	st  Cell[listState]
}

// listState is the immutable per-node state.
type listState struct {
	val    uint64
	next   *listNode
	marked bool
}

// List is the 3-path sorted linked list dictionary of Section 10.2:
// a software k-CAS fallback path, an HTM middle path that performs the
// k-CAS as a transaction (no descriptors, but descriptor and mark
// checks), and an HTM fast path that additionally skips the descriptor
// checks — safe because the fast path never runs concurrently with the
// fallback path. Traversals run outside transactions on every path; the
// update transaction revalidates the states it depends on.
type List struct {
	tm   *htm.TM
	eng  *engine.Engine
	head *listNode
}

// ListConfig configures a List.
type ListConfig struct {
	// Algorithm selects the template implementation (default 3-path).
	Algorithm engine.Algorithm
	// HTM configures the simulated HTM.
	HTM htm.Config
	// Engine overrides attempt budgets and the fallback indicator.
	Engine engine.Config
}

// NewList creates an empty list.
func NewList(cfg ListConfig) *List {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = engine.AlgThreePath
	}
	ecfg := cfg.Engine
	ecfg.Algorithm = cfg.Algorithm
	head := &listNode{}
	head.st.Init(&listState{})
	tm := htm.New(cfg.HTM)
	head.st.Bind(tm.Clock())
	return &List{
		tm:   tm,
		eng:  engine.New(ecfg, tm.Clock()),
		head: head,
	}
}

// OpStats returns the engine's statistics snapshot (engine.StatsSource).
func (l *List) OpStats() engine.OpStats { return l.eng.Stats() }

// ListHandle is a per-goroutine handle.
type ListHandle struct {
	l *List
	e *engine.Thread

	argKey, argVal uint64
	argLo, argHi   uint64
	resVal         uint64
	resFound       bool
	rqOut          []dict.KV

	insertOp, deleteOp, searchOp, rqOp engine.Op
}

var _ dict.Handle = (*ListHandle)(nil)

// NewHandle registers a per-goroutine handle.
func (l *List) NewHandle() dict.Handle {
	h := &ListHandle{l: l, e: l.eng.NewThread(l.tm.NewThread())}
	h.insertOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { l.insertTx(tx, h, false) },
		Middle:   func(tx *htm.Tx) { l.insertTx(tx, h, true) },
		Fallback: func() bool { return l.insertKCAS(h) },
		Locked:   func() { l.insertLocked(h) },
	}
	h.deleteOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { l.deleteTx(tx, h, false) },
		Middle:   func(tx *htm.Tx) { l.deleteTx(tx, h, true) },
		Fallback: func() bool { return l.deleteKCAS(h) },
		Locked:   func() { l.deleteLocked(h) },
	}
	// The read-only operations have one transactional body and leave
	// Middle nil (engine.Op.Middle).
	h.searchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { l.searchBody(h) },
		Fallback: func() bool { l.searchBody(h); return true },
	}
	h.rqOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { l.rqTx(tx, h) },
		Fallback: func() bool { l.rqPlain(h); return true },
		Locked:   func() { l.rqPlain(h) },
	}
	return h
}

// search returns pred (last node with key < target), its observed state,
// curr (pred's successor, possibly nil), and curr's observed state. The
// traversal reads through descriptors without helping.
func (l *List) search(key uint64) (pred *listNode, ps *listState, curr *listNode, cs *listState) {
	pred = l.head
	ps = pred.st.ReadNoHelp()
	curr = ps.next
	for curr != nil {
		cs = curr.st.ReadNoHelp()
		if curr.key >= key {
			return pred, ps, curr, cs
		}
		pred, ps = curr, cs
		curr = cs.next
	}
	return pred, ps, nil, nil
}

// Insert associates key with val.
func (h *ListHandle) Insert(key, val uint64) (uint64, bool) {
	checkListKey(key)
	h.argKey, h.argVal = key, val
	h.e.Run(h.insertOp)
	return h.resVal, h.resFound
}

// Delete removes key.
func (h *ListHandle) Delete(key uint64) (uint64, bool) {
	checkListKey(key)
	h.argKey = key
	h.e.Run(h.deleteOp)
	return h.resVal, h.resFound
}

// Search looks up key.
func (h *ListHandle) Search(key uint64) (uint64, bool) {
	checkListKey(key)
	h.argKey = key
	h.e.Run(h.searchOp)
	return h.resVal, h.resFound
}

// RangeQuery appends all pairs with lo <= key < hi in ascending order.
func (h *ListHandle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.e.Run(h.rqOp)
	return append(out, h.rqOut...)
}

func checkListKey(key uint64) {
	if key == 0 || key > dict.MaxKey {
		panic(fmt.Sprintf("kcas: list key %d out of range [1, MaxKey]", key))
	}
}

// insertTx is the transactional insert (fast and middle paths): the
// traversal runs outside the transaction (unsubscribed reads); the
// update transaction revalidates the two states it depends on.
func (l *List) insertTx(tx *htm.Tx, h *ListHandle, checkDesc bool) {
	key, val := h.argKey, h.argVal
	pred, ps, curr, cs := l.search(key)
	if curr != nil && curr.key == key {
		if cs.marked {
			tx.Abort(AbortStale)
		}
		h.resVal, h.resFound = cs.val, true
		curr.st.WriteTx(tx, checkDesc, cs, &listState{val: val, next: cs.next})
		return
	}
	h.resVal, h.resFound = 0, false
	if ps.marked {
		tx.Abort(AbortStale)
	}
	n := &listNode{key: key}
	n.st.Init(&listState{val: val, next: curr})
	n.st.Bind(l.tm.Clock())
	pred.st.WriteTx(tx, checkDesc, ps, &listState{val: ps.val, next: n, marked: false})
}

// deleteTx is the transactional delete.
func (l *List) deleteTx(tx *htm.Tx, h *ListHandle, checkDesc bool) {
	key := h.argKey
	pred, ps, curr, cs := l.search(key)
	if curr == nil || curr.key != key || cs.marked {
		if curr != nil && curr.key == key && cs.marked {
			tx.Abort(AbortStale)
		}
		h.resVal, h.resFound = 0, false
		return
	}
	if ps.marked {
		tx.Abort(AbortStale)
	}
	h.resVal, h.resFound = cs.val, true
	pred.st.WriteTx(tx, checkDesc, ps, &listState{val: ps.val, next: cs.next})
	curr.st.WriteTx(tx, checkDesc, cs, &listState{val: cs.val, next: cs.next, marked: true})
}

// insertKCAS is the software fallback insert: a 1-CAS via the k-CAS
// machinery. It returns false to retry.
func (l *List) insertKCAS(h *ListHandle) bool {
	key, val := h.argKey, h.argVal
	pred, ps, curr, cs := l.search(key)
	if curr != nil && curr.key == key {
		if cs.marked {
			return false
		}
		h.resVal, h.resFound = cs.val, true
		return Apply(
			[]*Cell[listState]{&curr.st},
			[]*listState{cs},
			[]*listState{{val: val, next: cs.next}})
	}
	h.resVal, h.resFound = 0, false
	if ps.marked {
		return false
	}
	n := &listNode{key: key}
	n.st.Init(&listState{val: val, next: curr})
	n.st.Bind(l.tm.Clock())
	return Apply(
		[]*Cell[listState]{&pred.st},
		[]*listState{ps},
		[]*listState{{val: ps.val, next: n}})
}

// deleteKCAS is the software fallback delete: a 2-CAS that atomically
// unlinks and marks.
func (l *List) deleteKCAS(h *ListHandle) bool {
	key := h.argKey
	pred, ps, curr, cs := l.search(key)
	if curr == nil || curr.key != key {
		h.resVal, h.resFound = 0, false
		return true
	}
	if cs.marked || ps.marked {
		return false
	}
	h.resVal, h.resFound = cs.val, true
	return Apply(
		[]*Cell[listState]{&pred.st, &curr.st},
		[]*listState{ps, cs},
		[]*listState{
			{val: ps.val, next: cs.next},
			{val: cs.val, next: cs.next, marked: true},
		})
}

// insertLocked / deleteLocked are the TLE bodies (sequential, under the
// engine's global lock).
func (l *List) insertLocked(h *ListHandle) {
	key, val := h.argKey, h.argVal
	pred, ps, curr, cs := l.search(key)
	if curr != nil && curr.key == key {
		h.resVal, h.resFound = cs.val, true
		curr.st.e.Set(nil, &entry[listState]{v: &listState{val: val, next: cs.next}})
		return
	}
	h.resVal, h.resFound = 0, false
	n := &listNode{key: key}
	n.st.Init(&listState{val: val, next: curr})
	n.st.Bind(l.tm.Clock())
	pred.st.e.Set(nil, &entry[listState]{v: &listState{val: ps.val, next: n}})
}

func (l *List) deleteLocked(h *ListHandle) {
	key := h.argKey
	pred, ps, curr, cs := l.search(key)
	if curr == nil || curr.key != key {
		h.resVal, h.resFound = 0, false
		return
	}
	h.resVal, h.resFound = cs.val, true
	pred.st.e.Set(nil, &entry[listState]{v: &listState{val: ps.val, next: cs.next}})
	curr.st.e.Set(nil, &entry[listState]{v: &listState{val: cs.val, next: cs.next, marked: true}})
}

// searchBody is the read-only lookup, identical on every path (the
// traversal is naturally consistent: each state object is immutable).
func (l *List) searchBody(h *ListHandle) {
	_, _, curr, cs := l.search(h.argKey)
	if curr != nil && curr.key == h.argKey && !cs.marked {
		h.resVal, h.resFound = cs.val, true
		return
	}
	h.resVal, h.resFound = 0, false
}

// rqTx collects [lo,hi) inside a transaction (consistent snapshot).
func (l *List) rqTx(tx *htm.Tx, h *ListHandle) {
	h.rqOut = h.rqOut[:0]
	st := l.head.st.ReadTx(tx, false)
	curr := st.next
	for curr != nil {
		cs := curr.st.ReadTx(tx, false)
		if curr.key >= h.argHi {
			return
		}
		if curr.key >= h.argLo {
			h.rqOut = append(h.rqOut, dict.KV{Key: curr.key, Val: cs.val})
		}
		curr = cs.next
	}
}

// rqPlain collects [lo,hi) with an unsynchronized traversal (fallback
// path; immutable states make each step individually consistent).
func (l *List) rqPlain(h *ListHandle) {
	h.rqOut = h.rqOut[:0]
	_, _, curr, cs := l.search(h.argLo)
	for curr != nil && curr.key < h.argHi {
		if !cs.marked {
			h.rqOut = append(h.rqOut, dict.KV{Key: curr.key, Val: cs.val})
		}
		curr = cs.next
		if curr != nil {
			cs = curr.st.ReadNoHelp()
		}
	}
}

// KeySum returns the sum and count of keys (quiescent use only).
func (l *List) KeySum() (sum, count uint64) {
	st := l.head.st.Read()
	for n := st.next; n != nil; {
		sum += n.key
		count++
		ns := n.st.Read()
		n = ns.next
	}
	return sum, count
}
