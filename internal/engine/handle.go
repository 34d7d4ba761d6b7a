package engine

import (
	"fmt"

	"htmtree/internal/dict"
	"htmtree/internal/htm"
	"htmtree/internal/nodepool"
)

// Handle is the template's half of a tree's per-thread handle over
// nodes of type N (paper Sections 3–5): the tree supplies its update
// bodies and its search and range walks, and Handle supplies the rest —
// registration with the engine and a node pool, the argument and result
// scratch the bodies read and write, the point and range entry points,
// the pinned reads of dict.PinnedReader, and the pool's counters. A tree
// embeds it in its own handle type and builds the four ops once, in
// newHandle, so operations allocate nothing.
type Handle[N any] struct {
	// Th is the handle's engine thread, Clk the tree's TM clock and Pool
	// the thread's node free lists (internal/nodepool).
	Th   *Thread
	Clk  *htm.Clock
	Pool *nodepool.Pool[N]

	// Key and Val are a point operation's arguments and Lo and Hi a range
	// query's; Res receives a point operation's result and Range a range
	// query's pairs.
	Key, Val uint64
	Lo, Hi   uint64
	Res      Result
	Range    []dict.KV

	// The tree's operations: its updates built by TemplateOp, its
	// read-only operations from one transactional body and a fallback
	// body each.
	InsertOp, DeleteOp, SearchOp, RangeOp Op
}

// Register makes h a new thread of e, on a new thread of e's TM, with a
// node pool whose isLeaf and fresh callbacks are the tree's
// (nodepool.New). Nodes the thread removes come back to the pool through
// the engine's epoch domain (Thread.EnableReclaim).
func (h *Handle[N]) Register(e *Engine, tm *htm.TM, isLeaf func(*N) bool, fresh func(leaf bool) *N) {
	h.Th = e.NewThread(tm.NewThread())
	h.Clk = tm.Clock()
	h.Pool = nodepool.New[N](isLeaf, fresh, h.Th)
	h.Th.EnableReclaim(h.Pool)
}

// TemplateOp builds an update's op from its one body: every path runs
// it, in the mode the path selects (prims.go), and a body run outside a
// transaction returns false to ask for a retry. Update marks an op that
// may change the dictionary's content (Op.Update). Each op gets a site of
// its own, so no two share a capacity memory.
func TemplateOp(body func(m Mode, tx *htm.Tx) bool, update bool) Op {
	return Op{
		Site:     NewSite(),
		Fast:     func(tx *htm.Tx) { body(ModeFast, tx) },
		Middle:   func(tx *htm.Tx) { body(ModeMiddle, tx) },
		Fallback: func() bool { return body(ModeFallback, nil) },
		SCXHTM:   func() bool { return body(ModeSCXHTM, nil) },
		Update:   update,
	}
}

// Prims returns the context of one attempt in mode m at the handle's own
// operation: arguments from, and the result into, the handle scratch.
func (h *Handle[N]) Prims(m Mode, tx *htm.Tx) Prims[N] {
	return Prims[N]{Th: h.Th, Tx: tx, Mode: m, Key: h.Key, Val: h.Val, Res: &h.Res}
}

// Update runs the update op on key and val and settles the pool with
// the path it completed on, returning the key's previous value and
// presence.
func (h *Handle[N]) Update(op *Op, key, val uint64) (uint64, bool) {
	checkKey(key)
	h.Key, h.Val = key, val
	h.Pool.Settle(h.Th.Run(*op))
	return h.Res.Val, h.Res.Found
}

// Search looks up key.
func (h *Handle[N]) Search(key uint64) (uint64, bool) {
	checkKey(key)
	h.Key = key
	h.Th.Run(h.SearchOp)
	return h.Res.Val, h.Res.Found
}

// RangeQuery appends all pairs with lo <= key < hi to out in ascending
// key order.
func (h *Handle[N]) RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV {
	h.setRange(lo, hi)
	h.Th.Run(h.RangeOp)
	return append(out, h.Range...)
}

// RangeAgg returns the aggregate tuple of the keys in [lo, hi): the
// range query's own op, folded (dict.Fold). The collected range stays in
// the handle scratch, so steady-state queries allocate nothing. The
// error is always nil.
func (h *Handle[N]) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	h.setRange(lo, hi)
	h.Th.Run(h.RangeOp)
	return dict.Fold(h.Range), nil
}

// setRange stores a range query's arguments in the handle scratch, hi
// clamped to the key space so that no walk reaches a tree's sentinel
// keys, and its extent in the op as the call's footprint hint: the cells
// a scan reads grow with the keys it covers, and which extents fit a
// transaction is the site's to learn (Op.Hint).
func (h *Handle[N]) setRange(lo, hi uint64) {
	hi = min(hi, dict.MaxKey+1)
	h.Lo, h.Hi = lo, hi
	h.Range = h.Range[:0]
	h.RangeOp.Hint = 0
	if hi > lo {
		h.RangeOp.Hint = hi - lo
	}
}

// Pinned reads (dict.PinnedReader): the range query's own op, run as one
// first-path transaction at a snapshot of the tree's clock the caller
// read earlier (Thread.RunAt). PinEnter takes the fresh clock value
// PinClock then reads (htm.Clock.Pin): commits leave the clock alone, so
// without it the snapshot would miss the newest ones.

func (h *Handle[N]) Pinnable() bool   { return h.Th.CanPin() }
func (h *Handle[N]) PinEnter()        { h.Th.EnterReclaim(); h.Clk.Pin() }
func (h *Handle[N]) PinExit()         { h.Th.ExitReclaim() }
func (h *Handle[N]) PinClock() uint64 { return h.Clk.Now() }

func (h *Handle[N]) RangeQueryAt(rv, lo, hi uint64, out []dict.KV) ([]dict.KV, dict.PinStatus) {
	h.setRange(lo, hi)
	st := h.Th.RunAt(&h.RangeOp, rv)
	if st != dict.PinCommitted {
		return out, st
	}
	return append(out, h.Range...), st
}

// ReclaimStats returns a snapshot of the handle's pool counters.
func (h *Handle[N]) ReclaimStats() nodepool.Stats { return h.Pool.Stats() }

// PoolSize returns the number of nodes in the handle's free lists
// (white-box tests).
func (h *Handle[N]) PoolSize() int { return h.Pool.Size() }

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("engine: key %d exceeds dict.MaxKey", key))
	}
}
