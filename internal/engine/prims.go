package engine

import (
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// This file is the one place that decides which flavour of LLX and SCX a
// template operation runs with. A tree writes each update once, in terms
// of Prims.LLX and Prims.SCX (paper Figure 12); the execution path only
// picks the Mode, and helping an announced operation (help.go) is one
// more mode of the same body, not a second copy of it.

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
	// transaction of Section 5).
	ModeMiddle
	// ModeFallback: the original lock-free LLXO/SCXO.
	ModeFallback
	// ModeSCXHTM: non-transactional LLX and the standalone HTM SCX of
	// Section 4.
	ModeSCXHTM
	// ModeHelp: one attempt at an announced operation (help.go), run by
	// its owner or by any helper on the runner's own handle. LLX is
	// ModeFallback's; the update phase publishes its SCX-record in the
	// descriptor before executing it.
	ModeHelp
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
// where the arguments come from, where the result goes, and how LLX and
// SCX run. A handle running its own operation points Key, Val and Res at
// its scratch; a ModeHelp attempt takes Key and Val from Desc and keeps
// Res private, because the runner's scratch belongs to whatever
// operation the runner itself has in flight.
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
	// Desc is the announced operation (ModeHelp only).
	Desc *HelpDesc
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
	case ModeHelp:
		// SCXO split into build / Install / Run: the install CAS is the
		// operation's claim. Once installed, any executor of the
		// descriptor (or any LLX that meets the record) can push it, but
		// only the installing thread sees true here, so removed nodes are
		// retired exactly once. Losing the install means another attempt
		// already holds the descriptor: this one is dropped unpublished.
		att := &HelpAttempt{
			Rec:    llxscx.NewRecord(v, infos, r, fld, old, new),
			Result: *pr.Res,
		}
		ok = pr.Desc.Install(att) && att.Rec.Run()
	}
	if !ok {
		pr.Failed = true
	}
	return ok
}

// NotFound completes an attempt that found no key to remove: the result
// is "absent" and nothing is written. A ModeHelp attempt installs it as a
// terminal attempt without a record — absence was determined while the
// fallback word excluded fast-path commits, so it is the operation's
// linearization.
func (pr *Prims[N]) NotFound() bool {
	*pr.Res = Result{}
	if pr.Mode == ModeHelp {
		pr.Desc.Install(&HelpAttempt{})
	}
	return true
}
