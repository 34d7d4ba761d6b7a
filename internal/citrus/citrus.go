// Package citrus implements the CITRUS node-oriented (internal) binary
// search tree of Arbel and Attiya (PODC 2014) — RCU-protected searches
// plus fine-grained per-node locking for updates — together with the
// 3-path HTM acceleration sketched in Section 10.1 of Brown's paper:
//
//   - The fallback path is CITRUS itself. Deleting a node with two
//     children replaces it with a copy holding the successor's key and
//     must call rcu.Synchronize before unlinking the successor — the
//     dominating cost of the algorithm.
//   - The middle path wraps the operation in a transaction: the
//     Synchronize disappears (the transaction is atomic), and instead of
//     acquiring locks the transaction merely reads each relevant lock
//     word (a free lock it subscribed to that is later acquired aborts
//     it). It still runs read-side critical sections because the
//     fallback path's Synchronize must observe it.
//   - The fast path drops the RCU calls and the lock-word reads as well;
//     it runs only while the fallback-presence indicator is zero.
package citrus

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/rcu"
)

// sentinel key for the root (never a client key).
const keyInf = ^uint64(0)

// Node is an internal-BST node. Every shared field is a cell; lock is a
// spin-lock word acquired through cell CAS, so acquisitions bump the
// cell version and abort transactions that subscribed to it.
type Node struct {
	key    uint64
	val    htm.Word
	l, r   htm.Ref[Node]
	lock   htm.Word
	marked htm.Word
}

func newNode(clk *htm.Clock, key, val uint64, l, r *Node) *Node {
	n := &Node{key: key}
	n.val.Bind(clk)
	n.l.Bind(clk)
	n.r.Bind(clk)
	n.lock.Bind(clk)
	n.marked.Bind(clk)
	n.val.Init(val)
	n.l.Init(l)
	n.r.Init(r)
	return n
}

// tryLock attempts to acquire n's spin lock without blocking.
func (n *Node) tryLock() bool { return n.lock.CAS(nil, 0, 1) }

// unlock releases n's spin lock.
func (n *Node) unlock() { n.lock.Set(nil, 0) }

// lockFreeInTx checks inside a transaction that n's lock is free,
// aborting otherwise — the middle path's lock subscription.
func (n *Node) lockFreeInTx(tx *htm.Tx) {
	if n.lock.Get(tx) != 0 {
		tx.Abort(engine.CodeRetry)
	}
}

// Config configures a Tree.
type Config struct {
	// Algorithm selects the template implementation (default 3-path).
	Algorithm engine.Algorithm
	// HTM configures the simulated HTM.
	HTM htm.Config
	// Engine overrides attempt budgets and the fallback indicator.
	Engine engine.Config
}

// Tree is a CITRUS tree runnable under the template algorithms.
type Tree struct {
	tm   *htm.TM
	eng  *engine.Engine
	rcu  *rcu.RCU
	root *Node // sentinel with key ∞; the real tree hangs off root.l
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = engine.AlgThreePath
	}
	ecfg := cfg.Engine
	ecfg.Algorithm = cfg.Algorithm
	tm := htm.New(cfg.HTM)
	return &Tree{
		tm:   tm,
		eng:  engine.New(ecfg, tm.Clock()),
		rcu:  rcu.New(),
		root: newNode(tm.Clock(), keyInf, 0, nil, nil),
	}
}

// OpStats returns the engine's statistics snapshot (engine.StatsSource).
func (t *Tree) OpStats() engine.OpStats { return t.eng.Stats() }

// Handle is a per-goroutine handle.
type Handle struct {
	t  *Tree
	e  *engine.Thread
	rd *rcu.Reader

	argKey, argVal uint64
	argLo, argHi   uint64
	resVal         uint64
	resFound       bool
	rqOut          []dict.KV

	insertOp, deleteOp, searchOp, rqOp engine.Op
}

var _ dict.Handle = (*Handle)(nil)

// NewHandle registers a per-goroutine handle.
func (t *Tree) NewHandle() dict.Handle {
	h := &Handle{t: t, e: t.eng.NewThread(t.tm.NewThread()), rd: t.rcu.NewReader()}
	h.insertOp = engine.Op{
		Site:   engine.NewSite(),
		Fast:   func(tx *htm.Tx) { t.insertTx(tx, h, false) },
		Middle: func(tx *htm.Tx) { t.insertMiddle(tx, h) },
		Fallback: func() bool {
			done := t.insertFallback(h)
			return done
		},
	}
	h.deleteOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.deleteTx(tx, h, false) },
		Middle:   func(tx *htm.Tx) { t.deleteMiddle(tx, h) },
		Fallback: func() bool { return t.deleteFallback(h) },
	}
	h.searchOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.searchBody(tx, h, false) },
		Middle:   func(tx *htm.Tx) { t.searchBody(tx, h, true) },
		Fallback: func() bool { t.searchFallback(h); return true },
	}
	h.rqOp = engine.Op{
		Site:     engine.NewSite(),
		Fast:     func(tx *htm.Tx) { t.rqInTx(tx, h) },
		Middle:   func(tx *htm.Tx) { t.rqMiddle(tx, h) },
		Fallback: func() bool { t.rqFallback(h); return true },
	}
	return h
}

// Insert associates key with val.
func (h *Handle) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	h.argKey, h.argVal = key, val
	h.e.Run(h.insertOp)
	return h.resVal, h.resFound
}

// Delete removes key.
func (h *Handle) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.e.Run(h.deleteOp)
	return h.resVal, h.resFound
}

// Search looks up key.
func (h *Handle) Search(key uint64) (uint64, bool) {
	checkKey(key)
	h.argKey = key
	h.e.Run(h.searchOp)
	return h.resVal, h.resFound
}

// RangeQuery appends all pairs with lo <= key < hi in ascending order.
func (h *Handle) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	h.argLo, h.argHi = lo, hi
	h.rqOut = h.rqOut[:0]
	h.e.Run(h.rqOp)
	return append(out, h.rqOut...)
}

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("citrus: key %d exceeds dict.MaxKey", key))
	}
}

// childRef returns the child field of p a search for key follows.
func childRef(p *Node, key uint64) *htm.Ref[Node] {
	if key < p.key {
		return &p.l
	}
	return &p.r
}

// traverse descends from the root, returning the node holding key (nil
// if absent) and its last non-nil ancestor prev.
func (t *Tree) traverse(tx *htm.Tx, key uint64) (prev, cur *Node) {
	prev = t.root
	cur = t.root.l.Get(tx)
	for cur != nil && cur.key != key {
		prev = cur
		cur = childRef(cur, key).Get(tx)
	}
	return prev, cur
}

// ---- transactional paths ----

// insertTx is the sequential insert in a transaction (fast path / TLE
// locked body with tx == nil).
func (t *Tree) insertTx(tx *htm.Tx, h *Handle, lockCheck bool) {
	key, val := h.argKey, h.argVal
	prev, cur := t.traverse(tx, key)
	if cur != nil {
		if lockCheck {
			cur.lockFreeInTx(tx)
		}
		h.resVal, h.resFound = cur.val.Get(tx), true
		cur.val.Set(tx, val)
		return
	}
	if lockCheck {
		prev.lockFreeInTx(tx)
	}
	h.resVal, h.resFound = 0, false
	childRef(prev, key).Set(tx, newNode(t.tm.Clock(), key, val, nil, nil))
}

// insertMiddle wraps insertTx in a read-side critical section (the
// fallback path's Synchronize must observe middle-path operations) and
// checks lock words instead of acquiring them.
func (t *Tree) insertMiddle(tx *htm.Tx, h *Handle) {
	h.rd.Lock()
	defer h.rd.Unlock()
	t.insertTx(tx, h, true)
}

// deleteTx is the sequential delete in a transaction. Both unlink steps
// of the two-child case happen in one atomic transaction, which is
// exactly why the middle path needs no rcu.Synchronize (Section 10.1).
func (t *Tree) deleteTx(tx *htm.Tx, h *Handle, lockCheck bool) {
	key := h.argKey
	prev, cur := t.traverse(tx, key)
	if cur == nil {
		h.resVal, h.resFound = 0, false
		return
	}
	if lockCheck {
		prev.lockFreeInTx(tx)
		cur.lockFreeInTx(tx)
	}
	h.resVal, h.resFound = cur.val.Get(tx), true
	cl, cr := cur.l.Get(tx), cur.r.Get(tx)
	if cl == nil || cr == nil {
		child := cl
		if child == nil {
			child = cr
		}
		childRef(prev, key).Set(tx, child)
		cur.marked.Set(tx, 1)
		return
	}
	// Two children: find the successor (leftmost node of cur.r).
	sp, s := cur, cr
	for {
		sl := s.l.Get(tx)
		if sl == nil {
			break
		}
		sp, s = s, sl
	}
	if lockCheck {
		s.lockFreeInTx(tx)
		if sp != cur {
			sp.lockFreeInTx(tx)
		}
	}
	var repl *Node
	if sp == cur {
		// Successor is cur's right child: absorb it directly.
		repl = newNode(t.tm.Clock(), s.key, s.val.Get(tx), cl, s.r.Get(tx))
	} else {
		repl = newNode(t.tm.Clock(), s.key, s.val.Get(tx), cl, cr)
		sp.l.Set(tx, s.r.Get(tx))
	}
	childRef(prev, key).Set(tx, repl)
	cur.marked.Set(tx, 1)
	s.marked.Set(tx, 1)
}

// deleteMiddle is deleteTx inside a read-side critical section with
// lock-word checks.
func (t *Tree) deleteMiddle(tx *htm.Tx, h *Handle) {
	h.rd.Lock()
	defer h.rd.Unlock()
	t.deleteTx(tx, h, true)
}

func (t *Tree) searchBody(tx *htm.Tx, h *Handle, withRCU bool) {
	if withRCU {
		h.rd.Lock()
		defer h.rd.Unlock()
	}
	_, cur := t.traverse(tx, h.argKey)
	if cur != nil {
		h.resVal, h.resFound = cur.val.Get(tx), true
		return
	}
	h.resVal, h.resFound = 0, false
}

// ---- fallback path: CITRUS proper ----

// searchFallback is the RCU-protected lock-free search. Note that it
// deliberately does not check marked bits: a reader that reaches a node
// displaced by a concurrent two-child delete linearizes before the
// replacement (the key is still present, carried by the replacement
// copy), which is precisely the behaviour the CITRUS rcu_wait protocol
// is designed to keep correct.
func (t *Tree) searchFallback(h *Handle) {
	h.rd.Lock()
	defer h.rd.Unlock()
	_, cur := t.traverse(nil, h.argKey)
	if cur != nil {
		h.resVal, h.resFound = cur.val.Get(nil), true
		return
	}
	h.resVal, h.resFound = 0, false
}

// insertFallback returns false to retry.
func (t *Tree) insertFallback(h *Handle) bool {
	key, val := h.argKey, h.argVal
	h.rd.Lock()
	prev, cur := t.traverse(nil, key)
	h.rd.Unlock()

	if cur != nil {
		if !cur.tryLock() {
			return false
		}
		defer cur.unlock()
		if cur.marked.Get(nil) != 0 {
			return false
		}
		h.resVal, h.resFound = cur.val.Get(nil), true
		cur.val.Set(nil, val)
		return true
	}
	if !prev.tryLock() {
		return false
	}
	defer prev.unlock()
	if prev.marked.Get(nil) != 0 || childRef(prev, key).Get(nil) != nil {
		return false
	}
	h.resVal, h.resFound = 0, false
	childRef(prev, key).Set(nil, newNode(t.tm.Clock(), key, val, nil, nil))
	return true
}

// deleteFallback implements the CITRUS delete, including the
// rcu.Synchronize between replacing a two-child node and unlinking its
// successor — the step the HTM paths eliminate.
func (t *Tree) deleteFallback(h *Handle) bool {
	key := h.argKey
	h.rd.Lock()
	prev, cur := t.traverse(nil, key)
	h.rd.Unlock()

	if cur == nil {
		h.resVal, h.resFound = 0, false
		return true
	}
	if !prev.tryLock() {
		return false
	}
	defer prev.unlock()
	if !cur.tryLock() {
		return false
	}
	defer cur.unlock()
	if prev.marked.Get(nil) != 0 || cur.marked.Get(nil) != 0 ||
		childRef(prev, key).Get(nil) != cur {
		return false
	}

	h.resVal, h.resFound = cur.val.Get(nil), true
	cl, cr := cur.l.Get(nil), cur.r.Get(nil)
	if cl == nil || cr == nil {
		child := cl
		if child == nil {
			child = cr
		}
		childRef(prev, key).Set(nil, child)
		cur.marked.Set(nil, 1)
		return true
	}

	// Two children: lock the successor (and its parent when distinct).
	sp, s := cur, cr
	for {
		sl := s.l.Get(nil)
		if sl == nil {
			break
		}
		sp, s = s, sl
	}
	if sp != cur {
		if !sp.tryLock() {
			return false
		}
		defer sp.unlock()
	}
	if !s.tryLock() {
		return false
	}
	defer s.unlock()
	if sp.marked.Get(nil) != 0 || s.marked.Get(nil) != 0 || s.l.Get(nil) != nil {
		return false
	}
	if sp != cur && sp.l.Get(nil) != s {
		return false
	}

	if sp == cur {
		repl := newNode(t.tm.Clock(), s.key, s.val.Get(nil), cl, s.r.Get(nil))
		childRef(prev, key).Set(nil, repl)
		cur.marked.Set(nil, 1)
		s.marked.Set(nil, 1)
		return true
	}
	// Replace cur by a copy carrying the successor's key, wait for
	// readers that may already be descending toward the successor, then
	// unlink the successor.
	repl := newNode(t.tm.Clock(), s.key, s.val.Get(nil), cl, cr)
	childRef(prev, key).Set(nil, repl)
	cur.marked.Set(nil, 1)
	t.rcu.Synchronize()
	sp.l.Set(nil, s.r.Get(nil))
	s.marked.Set(nil, 1)
	return true
}

// ---- range queries ----

func (t *Tree) rqInTx(tx *htm.Tx, h *Handle) {
	h.rqOut = h.rqOut[:0]
	t.rqWalk(tx, t.root.l.Get(tx), h)
}

func (t *Tree) rqMiddle(tx *htm.Tx, h *Handle) {
	h.rd.Lock()
	defer h.rd.Unlock()
	t.rqInTx(tx, h)
}

func (t *Tree) rqFallback(h *Handle) {
	h.rd.Lock()
	defer h.rd.Unlock()
	h.rqOut = h.rqOut[:0]
	t.rqWalk(nil, t.root.l.Get(nil), h)
}

func (t *Tree) rqWalk(tx *htm.Tx, n *Node, h *Handle) {
	if n == nil {
		return
	}
	if h.argLo < n.key {
		t.rqWalk(tx, n.l.Get(tx), h)
	}
	if n.key >= h.argLo && n.key < h.argHi {
		h.rqOut = append(h.rqOut, dict.KV{Key: n.key, Val: n.val.Get(tx)})
	}
	if h.argHi > n.key {
		t.rqWalk(tx, n.r.Get(tx), h)
	}
}

// KeySum returns the sum and count of keys (quiescent use only).
func (t *Tree) KeySum() (sum, count uint64) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		walk(n.l.Get(nil))
		sum += n.key
		count++
		walk(n.r.Get(nil))
	}
	walk(t.root.l.Get(nil))
	return sum, count
}

// CheckInvariants validates the BST ordering (quiescent use only).
func (t *Tree) CheckInvariants() error {
	var walk func(n *Node, lo, hi uint64) error
	walk = func(n *Node, lo, hi uint64) error {
		if n == nil {
			return nil
		}
		if n.marked.Get(nil) != 0 {
			return fmt.Errorf("citrus: reachable marked node %d", n.key)
		}
		if n.key < lo || n.key >= hi {
			return fmt.Errorf("citrus: key %d outside (%d,%d)", n.key, lo, hi)
		}
		if err := walk(n.l.Get(nil), lo, n.key); err != nil {
			return err
		}
		return walk(n.r.Get(nil), n.key+1, hi)
	}
	return walk(t.root.l.Get(nil), 0, keyInf)
}
