package engine

import (
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// This file is the one place that decides which flavour of LLX and SCX a
// template operation runs with. A tree writes each update once, in terms
// of Prims.LLX and Prims.SCX (paper Figure 12); the execution path only
// picks the Mode.

// Mode selects the flavour of the template primitives a body runs with.
type Mode uint8

const (
	// ModeFast: sequential code (paper Figure 13) — plain
	// (transactional) reads and direct writes; marks removed nodes. Used
	// inside fast-path transactions and, with a nil Tx, as the TLE locked
	// body. Bodies branch on it: the sequential code is a different
	// algorithm (in-place updates, node reuse), not a flavour of the
	// template.
	ModeFast Mode = iota + 1
	// ModeMiddle: transactional LLX + SCXInTx (the instrumented
	// transaction of Section 5). A body may also run its ModeFast edit of a
	// node's fields here, instrumented by EditInPlace.
	ModeMiddle
	// ModeFallback: the original lock-free LLXO/SCXO.
	ModeFallback
	// ModeSCXHTM: non-transactional LLX and the standalone HTM SCX of
	// Section 4.
	ModeSCXHTM
)

// SCXHTMMode returns the mode of an Op.SCXHTM body: the standalone HTM
// SCX while the engine still budgets attempts for it, the original SCXO
// after.
func SCXHTMMode(useHTM bool) Mode {
	if useHTM {
		return ModeSCXHTM
	}
	return ModeFallback
}

// Result is an update's outcome: the key's previous value and presence,
// and whether the update left a constraint violation its owner must
// repair (the (a,b)-tree's degree violations).
type Result struct {
	Val     uint64
	Found   bool
	NeedFix bool
}

// Prims carries one attempt's execution context over a tree of N nodes:
// the operation's arguments, where its result goes (the handle's
// scratch), and how LLX and SCX run.
type Prims[N any] struct {
	Th   *Thread
	Tx   *htm.Tx // nil outside a transaction
	Mode Mode
	// Failed is set when a non-transactional primitive fails; the body
	// must unwind and return false so its caller retries.
	Failed bool
	// Key and Val are the operation's arguments.
	Key, Val uint64
	// Res receives the result, complete before the body calls SCX.
	Res *Result
}

// Fail gives up on the attempt: inside a transaction it aborts with
// CodeRetry and does not return; otherwise it sets Failed.
func (pr *Prims[N]) Fail() {
	if pr.Tx != nil {
		pr.Tx.Abort(CodeRetry)
	}
	pr.Failed = true
}

// LLX takes a snapshot of the record with header hdr and returns the
// linked info value (nil in ModeFast, which needs none). A failed
// snapshot is a Fail.
func (pr *Prims[N]) LLX(hdr *llxscx.Hdr, readFields func()) *llxscx.Info {
	if pr.Mode == ModeFast {
		// Sequential code: no synchronization metadata. The transaction
		// (or TLE lock) provides atomicity; Section 8's marked check
		// happens in the bodies where required.
		if readFields != nil {
			readFields()
		}
		return nil
	}
	info, st := llxscx.LLX(pr.Tx, hdr, readFields)
	if st != llxscx.StatusOK {
		pr.Fail()
	}
	return info
}

// SCX performs the update phase: change fld from old to new and finalize
// the records in r, where v lists every record (with its linked info)
// that must be unchanged. In a transaction it always succeeds (conflicts
// abort the transaction instead). Outside one it reports whether this
// thread's update took effect — the caller then owns the removed nodes —
// and sets Failed otherwise.
func (pr *Prims[N]) SCX(v []*llxscx.Hdr, infos []*llxscx.Info, r []*llxscx.Hdr,
	fld *htm.Ref[N], old, new *N) bool {
	var ok bool
	switch pr.Mode {
	case ModeFast:
		for _, hdr := range r {
			hdr.SetMarked(pr.Tx)
		}
		fld.Set(pr.Tx, new)
		return true
	case ModeMiddle:
		llxscx.SCXInTx(pr.Tx, &pr.Th.Tags, v, r)
		fld.Set(pr.Tx, new)
		return true
	case ModeFallback:
		ok = llxscx.SCXO(v, infos, r, fld, old, new)
	case ModeSCXHTM:
		ok, _ = llxscx.SCXHTM(pr.Th.H, htm.PathFast, &pr.Th.Tags, v, infos, r, fld, new)
	}
	if !ok {
		pr.Failed = true
	}
	return ok
}

// EditInPlace prepares the records with headers v for a direct write of
// their mutable fields, which the caller then makes in the same atomic
// step. In ModeFast it does nothing: the fast path runs while no fallback
// operation does, or under the TLE lock. In ModeMiddle it takes a linked
// transactional LLX of each record — a record frozen for an SCX in
// progress, or marked, fails the attempt — and stores one fresh tag in
// their info fields (SCXInTx, finalizing nothing). That is property P1
// for the edited fields: the info field changes whenever they do, so a
// fallback LLX whose reads straddle the edit fails, and an SCX linked to
// an earlier snapshot cannot freeze the record. The other modes replace
// records instead of editing them.
func (pr *Prims[N]) EditInPlace(v ...*llxscx.Hdr) {
	switch pr.Mode {
	case ModeFast:
	case ModeMiddle:
		for _, hdr := range v {
			pr.LLX(hdr, nil)
		}
		llxscx.SCXInTx(pr.Tx, &pr.Th.Tags, v, nil)
	default:
		panic("engine: EditInPlace outside a transactional mode")
	}
}

// NotFound completes an attempt that found no key to remove: the result
// is "absent" and nothing is written.
func (pr *Prims[N]) NotFound() bool {
	*pr.Res = Result{}
	return true
}
