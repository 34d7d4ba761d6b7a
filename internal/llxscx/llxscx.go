// Package llxscx implements the LLX and SCX synchronization primitives
// of Brown, Ellen and Ruppert ("Pragmatic primitives for non-blocking
// data structures", PODC 2013) together with the HTM-accelerated variants
// derived in Brown's "A Template for Implementing Fast Lock-free Trees
// Using HTM" (PODC 2017).
//
// A Data-record is any struct embedding a Hdr, which carries the two
// synchronization fields of the paper: info (a pointer used both to
// freeze the record for an in-progress SCX and to witness changes — the
// ABA-prevention property P1) and marked (set when the record is being
// finalized, i.e. permanently removed).
//
// Four flavours of SCX are provided:
//
//   - SCXO: the original lock-free implementation (paper Figure 2), used
//     on the fallback path. It creates an SCX-record that other threads
//     can help complete.
//   - SCXHTM: the standalone HTM implementation (paper Figure 4, the end
//     point of the Section 4 transformation chain). It runs its own
//     transaction, writes fresh tagged sequence numbers instead of
//     SCX-record pointers, and never needs help.
//   - SCXInTx: the Section 5 variant used when the entire template
//     operation already runs inside one transaction (the middle path and
//     the 2-path-concurrent fast path). The freezing comparison loop is
//     elided because the linked LLXs executed in the same transaction
//     subscribe the info fields.
//   - LLX: one implementation serving both worlds (paper Figure 8): with
//     a nil *htm.Tx it is the original LLXO plus the tagged-value test;
//     inside a transaction it performs transactional reads and never
//     helps (helping inside a transaction is both unnecessary for
//     progress and harmful, Section 4).
//
// Property P1 — between any two changes to a record's user fields, a
// value never previously contained in the info field is stored there —
// is preserved by always writing freshly allocated *Info values: fallback
// SCX-records carry their own unique Info, and each HTM SCX takes a
// never-used tagged Info (Rec == nil) from its thread's TagSource. This
// replaces the paper's pointer tagging, which Go's garbage collector
// rules out, while preserving exactly the property the tag encoding
// served.
package llxscx

import (
	"sync/atomic"

	"htmtree/internal/htm"
)

// MaxV is the maximum length of an SCX's V sequence. The data structures
// in this repository need at most 4 (BST delete and (a,b)-tree
// rebalancing use V = {grandparent, parent, node, sibling}).
const MaxV = 6

// AbortCodeSCX is the explicit-abort code used when a standalone HTM SCX
// detects that a record changed since its linked LLX (the transactional
// analogue of a failed freezing CAS).
const AbortCodeSCX uint8 = 0xA1

// State of an SCX-record.
const (
	StateInProgress int32 = iota + 1
	StateCommitted
	StateAborted
)

// Info is the value stored in a record's info field. A fallback-path SCX
// stores an Info whose Rec points at its SCX-record; an HTM-path SCX
// stores a fresh Info with Rec == nil, playing the role of the paper's
// tagged sequence number (always-committed, never helped). A nil *Info
// (the zero value of a header) is treated like a tagged value.
type Info struct {
	// Rec is the SCX-record this Info belongs to, or nil for a tagged
	// sequence number.
	Rec *SCXRecord
	// Seq is the per-thread sequence number for tagged values; it exists
	// for diagnostics only (freshness comes from Info's identity).
	Seq uint64
}

// stateOf returns the effective state of an info value: tagged values
// (nil or Rec == nil) behave exactly like SCX-records whose state is
// Committed (Section 4 of the paper).
func stateOf(info *Info) int32 {
	if info == nil || info.Rec == nil {
		return StateCommitted
	}
	return info.Rec.state.Load()
}

// Hdr carries the synchronization fields of a Data-record. Embed it in
// any node type. The zero value is an unfrozen, unmarked record.
type Hdr struct {
	info   htm.Ref[Info]
	marked htm.Word
}

// Reset resets a pooled record's header — unfrozen and unmarked — with
// plain stores. Sound because a pooled record came back through a grace
// period: no thread can still hold it.
func (h *Hdr) Reset() {
	h.info.Init(nil)
	h.marked.Init(0)
}

// Marked reports whether the record has been marked for finalization.
// Pass the enclosing transaction, or nil outside one.
func (h *Hdr) Marked(tx *htm.Tx) bool { return h.marked.Get(tx) != 0 }

// SetMarked marks the record. It is exported for fast-path sequential
// code, which marks removed nodes directly inside its transaction
// (Sections 6 and 8 of the paper).
func (h *Hdr) SetMarked(tx *htm.Tx) { h.marked.Set(tx, 1) }

// InfoValue returns the current content of the info field (diagnostics
// and tests).
func (h *Hdr) InfoValue(tx *htm.Tx) *Info { return h.info.Get(tx) }

// fieldCAS applies an SCX-record's single field update. The concrete
// type captures the typed field pointer; the interface keeps SCXRecord
// monomorphic.
type fieldCAS interface{ cas() }

// fieldOp is the fieldCAS implementation for a child-pointer field.
type fieldOp[T any] struct {
	ref      *htm.Ref[T]
	old, new *T
}

func (f *fieldOp[T]) cas() { f.ref.CAS(nil, f.old, f.new) }

// SCXRecord is the descriptor created by fallback-path SCXs (paper
// Figure 2). Helpers use it to complete or abort the operation.
type SCXRecord struct {
	state     atomic.Int32
	allFrozen atomic.Bool
	nv, nr    int
	v         [MaxV]*Hdr
	infos     [MaxV]*Info
	r         [MaxV]*Hdr
	fld       fieldCAS
	self      Info
}

// Status is the result of an LLX.
type Status uint8

// LLX outcomes.
const (
	StatusOK        Status = iota + 1 // snapshot taken; info value returned
	StatusFail                        // concurrent SCX; retry
	StatusFinalized                   // record was finalized (removed)
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFail:
		return "fail"
	case StatusFinalized:
		return "finalized"
	default:
		return "status(?)"
	}
}

// LLX attempts to take a snapshot of the mutable fields of the record
// with header h (paper Figures 2 and 8). readFields, if non-nil, is
// invoked to read the record's mutable fields into caller-owned
// variables; the protocol guarantees that if LLX returns StatusOK those
// reads form an atomic snapshot and the returned *Info witnesses it (to
// be passed to a subsequent SCX as the linked info value).
//
// With tx == nil this is the original helping LLX. Inside a transaction
// it performs transactional reads and never helps: an in-progress
// fallback SCX simply yields StatusFail, and the caller is expected to
// abort and retry (possibly on another path).
func LLX(tx *htm.Tx, h *Hdr, readFields func()) (*Info, Status) {
	marked1 := h.marked.Get(tx) != 0
	rinfo := h.info.Get(tx)
	state := stateOf(rinfo)
	marked2 := h.marked.Get(tx) != 0

	if state == StateAborted || (state == StateCommitted && !marked2) {
		// The record was not frozen when state was read.
		if readFields != nil {
			readFields()
		}
		if h.info.Get(tx) == rinfo {
			return rinfo, StatusOK
		}
	}

	if tx != nil {
		// Transactional context: no helping (Section 4). The info cell
		// is already subscribed, so any change aborts the transaction.
		if stateOf(rinfo) == StateCommitted && marked1 {
			return nil, StatusFinalized
		}
		return nil, StatusFail
	}

	if (stateOf(rinfo) == StateCommitted ||
		(stateOf(rinfo) == StateInProgress && help(rinfo.Rec))) && marked1 {
		return nil, StatusFinalized
	}
	rinfo2 := h.info.Get(nil)
	if stateOf(rinfo2) == StateInProgress {
		help(rinfo2.Rec)
	}
	return nil, StatusFail
}

// SCXO is the original lock-free SCX (paper Figure 2). v is the sequence
// of records that must be unchanged since their linked LLXs returned the
// corresponding infos values; the records in r (indices into v's records
// given as headers) are finalized; fld is the child-pointer field to
// change from old to new. It returns true if the SCX succeeded.
//
// Preconditions (paper Section 3): the caller performed a linked LLX on
// every record in v obtaining infos, new was never previously contained
// in fld, and r is a subsequence of v.
func SCXO[T any](v []*Hdr, infos []*Info, r []*Hdr, fld *htm.Ref[T], old, new *T) bool {
	rec := &SCXRecord{
		nv:  len(v),
		nr:  len(r),
		fld: &fieldOp[T]{ref: fld, old: old, new: new},
	}
	rec.state.Store(StateInProgress)
	copy(rec.v[:], v)
	copy(rec.infos[:], infos)
	copy(rec.r[:], r)
	rec.self.Rec = rec
	return help(rec)
}

// help runs the body of the original SCX (paper Figure 2, Help) to
// completion on behalf of any thread. It may be called concurrently by
// multiple helpers.
func help(rec *SCXRecord) bool {
	// Freeze all records in V to protect their mutable fields.
	for i := 0; i < rec.nv; i++ {
		h := rec.v[i]
		if !h.info.CAS(nil, rec.infos[i], &rec.self) { // freezing CAS
			if h.info.Get(nil) != &rec.self {
				// Could not freeze h: it is frozen for another SCX.
				if rec.allFrozen.Load() {
					// The SCX already completed successfully (another
					// helper finished it).
					return true
				}
				// Unfreeze everything frozen for this SCX.
				rec.state.Store(StateAborted) // abort step
				return false
			}
		}
	}
	rec.allFrozen.Store(true) // frozen step
	for i := 0; i < rec.nr; i++ {
		rec.r[i].marked.Set(nil, 1) // mark step
	}
	rec.fld.cas() // update CAS
	// Finalize all records in R and unfreeze all records in V \ R.
	rec.state.Store(StateCommitted) // commit step
	return true
}

// TagSource produces the fresh tagged info values HTM-path SCXs write in
// place of SCX-record pointers (paper Section 4, "eliminating the
// creation of SCX-records"). One TagSource per thread.
type TagSource struct {
	seq uint64
	// chunk holds the rest of the last allocation's tags, none handed
	// out yet.
	chunk []Info
}

// tagChunk is how many tags one allocation provides.
const tagChunk = 16

// Next returns a fresh tagged Info. Freshness (property P1) comes from
// the allocation: each element of a chunk is handed out once, so no info
// field has ever contained the pointer. A tag still stored in some info
// field keeps its whole chunk alive.
func (t *TagSource) Next() *Info {
	if len(t.chunk) == 0 {
		t.chunk = make([]Info, tagChunk)
	}
	in := &t.chunk[0]
	t.chunk = t.chunk[1:]
	t.seq++
	in.Seq = t.seq
	return in
}

// SCXHTM is the standalone HTM SCX (paper Figures 4 and 11): it runs its
// own transaction on the given path, verifies that no record in v has
// changed since its linked LLX (explicitly aborting with AbortCodeSCX
// otherwise), stores a fresh tagged info value in every record of v,
// marks the records of r, and writes new into fld. It returns whether
// the transaction committed and the abort details otherwise; an explicit
// abort with AbortCodeSCX plays the role of SCX returning false.
func SCXHTM[T any](th *htm.Thread, path htm.PathKind, tags *TagSource,
	v []*Hdr, infos []*Info, r []*Hdr, fld *htm.Ref[T], new *T) (bool, htm.Abort) {
	return th.Atomic(path, func(tx *htm.Tx) {
		// Abort if any record in V changed since the linked LLX.
		for i, h := range v {
			if h.info.Get(tx) != infos[i] {
				tx.Abort(AbortCodeSCX)
			}
		}
		tag := tags.Next()
		for _, h := range v {
			h.info.Set(tx, tag) // change info to a value never seen before
		}
		for _, h := range r {
			h.marked.Set(tx, 1) // mark each record to be finalized
		}
		fld.Set(tx, new) // perform the update
	})
}

// SCXInTx is the SCX variant for template operations that already run
// entirely inside one transaction (paper Section 5): the freezing
// comparison is elided because the linked LLXs in the same transaction
// subscribed the info fields, so any change aborts the transaction. The
// caller performs the field update itself (a transactional write) after
// this returns. With r empty, the update may be a direct edit of the
// mutable fields of v's records themselves: the fresh tag is the change
// P1 requires beside it.
//
// Precondition: every record in v was LLXed inside tx.
func SCXInTx(tx *htm.Tx, tags *TagSource, v []*Hdr, r []*Hdr) {
	tag := tags.Next()
	for _, h := range v {
		h.info.Set(tx, tag)
	}
	for _, h := range r {
		h.marked.Set(tx, 1)
	}
}
