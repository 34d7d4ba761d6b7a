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
	// Th is the handle's engine thread and Pool the thread's node free
	// lists (internal/nodepool).
	Th   *Thread
	Pool *nodepool.Pool[N]

	// Key and Val are a point operation's arguments and Lo and Hi a range
	// query's; Res receives a point operation's result.
	Key, Val uint64
	Lo, Hi   uint64
	Res      Result
	// Range is the caller's result slice while a range query runs, and
	// nil between calls: the walks append the pairs to it (Collect), and
	// every attempt starts over at the length the caller's slice came
	// with (RestartRange). So the result is not copied once more, and
	// the handle keeps no buffer as long as its longest scan, nor a
	// reference to the caller's.
	Range     []dict.KV
	rangeBase int
	// folding makes Collect fold the pairs into agg instead: an
	// aggregate query's walk, which keeps no pairs at all.
	folding bool
	agg     dict.Agg

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

// Update runs the update op on key and val and settles the pool,
// returning the key's previous value and presence.
func (h *Handle[N]) Update(op *Op, key, val uint64) (uint64, bool) {
	checkKey(key)
	h.Key, h.Val = key, val
	h.Th.Run(*op)
	h.Pool.Settle()
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
	h.setRange(lo, hi, out, false)
	h.Th.Run(h.RangeOp)
	return h.takeRange()
}

// RangeAgg returns the aggregate tuple of the keys in [lo, hi): the
// range query's own op, its walk folding each pair as it finds it
// (Collect), so the query keeps no pairs, allocates nothing, and leaves
// the handle no buffer. The error is always nil.
func (h *Handle[N]) RangeAgg(lo, hi uint64) (dict.Agg, error) {
	h.setRange(lo, hi, nil, true)
	h.Th.Run(h.RangeOp)
	return h.agg, nil
}

// Collect takes a pair the range walk found in [Lo, Hi), in ascending
// key order: appended to the result, or, for an aggregate query, folded
// into its tuple.
func (h *Handle[N]) Collect(k, v uint64) {
	if h.folding {
		h.agg.Add(k)
		return
	}
	h.Range = append(h.Range, dict.KV{Key: k, Val: v})
}

// RestartRange truncates the range result to the caller's prefix, and
// empties an aggregate query's tuple: a walk calls it before collecting,
// on every attempt and every fallback retry, so that nothing an
// abandoned attempt collected is kept.
func (h *Handle[N]) RestartRange() {
	h.Range = h.Range[:h.rangeBase]
	h.agg = dict.Agg{Min: ^uint64(0)}
}

// setRange stores a range query's arguments in the handle scratch, hi
// clamped to the key space so that no walk reaches a tree's sentinel
// keys, the caller's slice as the result to append to (or, folding, the
// aggregate query's mode: Collect), and the extent in the op as the
// call's footprint hint: the cells a scan reads grow with the keys it
// covers, and which extents fit a transaction is the site's to learn
// (Op.Hint).
func (h *Handle[N]) setRange(lo, hi uint64, out []dict.KV, folding bool) {
	hi = min(hi, dict.MaxKey+1)
	h.Lo, h.Hi = lo, hi
	h.Range, h.rangeBase, h.folding = out, len(out), folding
	h.RangeOp.Hint = 0
	if hi > lo {
		h.RangeOp.Hint = hi - lo
	}
}

// takeRange returns the range result and lets go of it.
func (h *Handle[N]) takeRange() []dict.KV {
	out := h.Range
	h.Range = nil
	return out
}

// Pinned reads (dict.PinnedReader): the range query's own op, run as one
// first-path transaction at a snapshot the caller took earlier
// (htm.Pin, Thread.RunAt).

func (h *Handle[N]) Pinnable() bool { return h.Th.CanPin() }
func (h *Handle[N]) PinEnter()      { h.Th.EnterReclaim() }
func (h *Handle[N]) PinExit()       { h.Th.ExitReclaim() }

func (h *Handle[N]) RangeQueryAt(rv, lo, hi uint64, out []dict.KV) ([]dict.KV, dict.PinStatus) {
	h.setRange(lo, hi, out, false)
	st := h.Th.RunAt(&h.RangeOp, rv)
	res := h.takeRange()
	if st != dict.PinCommitted {
		return out, st
	}
	return res, st
}

func (h *Handle[N]) RangeAggAt(rv, lo, hi uint64) (dict.Agg, dict.PinStatus) {
	h.setRange(lo, hi, nil, true)
	st := h.Th.RunAt(&h.RangeOp, rv)
	return h.agg, st
}

// ReclaimStats returns a snapshot of the handle's pool counters.
func (h *Handle[N]) ReclaimStats() nodepool.Stats { return h.Pool.Stats() }

func checkKey(key uint64) {
	if key > dict.MaxKey {
		panic(fmt.Sprintf("engine: key %d exceeds dict.MaxKey", key))
	}
}
