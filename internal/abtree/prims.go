package abtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// prims is one operation attempt's execution context: the shared LLX/SCX
// mode switch (engine/prims.go) over this tree's nodes, plus what only
// this tree needs — the aggregate work that rides on a non-transactional
// swing.
type prims struct {
	engine.Prims[Node]
	h *Handle
	// dSum and dCount are the delta a non-transactional leaf operation
	// owes its key's ancestors after its swing (agg.go aggUpdate); scx
	// applies it inside the aggVer bracket. dCount is ±1 when one is
	// owed.
	dSum, dCount uint64
}

// prims returns the context of one attempt at the handle's own operation:
// arguments from, and the result into, the handle scratch.
func (h *Handle) prims(m engine.Mode, tx *htm.Tx) *prims {
	return &prims{
		Prims: engine.Prims[Node]{Th: h.e, Tx: tx, Mode: m, Key: h.argKey, Val: h.argVal, Res: &h.res},
		h:     h,
	}
}

// scx is Prims.SCX inside the aggVer bracket a non-transactional swing
// needs. When aggregate work rides on the swing (deferred rebalance
// rebuilds or a leaf op's path fixup), the swing and the fixup must form
// one atomic step against transactional readers (agg.go). The bracket is
// taken before SCX: once a ModeHelp record is installed, any thread's
// LLX can help perform the swing, so acquiring first is what pins every
// possible swing instant inside the bracket. SCX reports true only to
// the thread whose update took effect, so the path fixup is applied
// exactly once. A value-update insert replaces the leaf with identical
// key content, plans no fixup and takes no bracket.
func (pr *prims) scx(v []*llxscx.Hdr, infos []*llxscx.Info, r []*llxscx.Hdr,
	fld *htm.Ref[Node], old, new *Node) bool {
	if pr.dCount == 0 && len(pr.h.pend) == 0 {
		// Nothing rides on the swing — always so in a transaction, whose
		// aggregate writes commit with it (aggUpdate, aggInit, aggFrom).
		return pr.SCX(v, infos, r, fld, old, new)
	}
	t := pr.h.t
	t.aggAcquire()
	for _, pe := range pr.h.pend {
		if pe.src != nil {
			aggCopy(nil, pe.dst, pe.src)
		} else {
			initAggs(nil, pe.dst)
		}
	}
	pr.h.pend = pr.h.pend[:0]
	ok := pr.SCX(v, infos, r, fld, old, new)
	if ok && pr.dCount != 0 {
		t.aggFixupNonTx(pr)
	}
	t.aggRelease()
	return ok
}
