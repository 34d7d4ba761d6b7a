package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"htmtree/internal/fault"
)

// PathKind identifies the execution path a transaction (or operation) ran
// on, for statistics. It mirrors the three-path vocabulary of the paper.
type PathKind uint8

// Execution paths.
const (
	PathFast PathKind = iota + 1
	PathMiddle
	PathFallback

	// NumPaths is the size of per-path counter arrays: index 0 is unused
	// so the path constants can start at one.
	NumPaths = 4
)

// String returns the paper's name for the path.
func (p PathKind) String() string {
	switch p {
	case PathFast:
		return "fast"
	case PathMiddle:
		return "middle"
	case PathFallback:
		return "fallback"
	default:
		return fmt.Sprintf("path(%d)", uint8(p))
	}
}

// AbortCause classifies why a transaction aborted, mirroring the RTM
// status word.
type AbortCause uint8

// Abort causes.
const (
	CauseNone     AbortCause = iota // committed
	CauseExplicit                   // Tx.Abort was invoked (xabort)
	CauseConflict                   // read/write conflict with another thread
	CauseCapacity                   // read or write set exceeded capacity
	CauseSpurious                   // injected best-effort failure

	// NumCauses is the size of per-cause counter arrays.
	NumCauses = 5
)

// String returns a short name for the cause.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseExplicit:
		return "explicit"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseSpurious:
		return "spurious"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Abort describes the outcome of an aborted transaction: the cause, plus
// the user code passed to Tx.Abort for explicit aborts (like the xabort
// immediate on Intel hardware).
type Abort struct {
	Cause AbortCause
	Code  uint8
	// held is the version word of the cell a conflict abort found locked
	// by another thread's commit in flight, nil for every other abort.
	held *atomic.Uint64
}

// AwaitCommit returns once the commit a conflict abort collided with, if
// any, has released the cell it held. A hardware commit is atomic, so a
// transaction can only ever lose to one that is already over; here a
// commit holds its write set locked for a few stores, and a committer
// the OS deschedules in that window holds it for a time slice. A retry
// loop that waits here before its next attempt spends one attempt per
// such commit, where retrying at once would spend the whole budget
// against a lock nobody is running to release, and move its operation
// to a slower path for nothing. Waiting is safe: the caller holds no
// cell locked, and a commit, like every non-transactional cell
// operation, finishes without waiting on anyone once it runs.
func (a Abort) AwaitCommit() {
	if a.held == nil {
		return
	}
	for i := 0; a.held.Load()&lockBit != 0; i++ {
		if i%128 == 127 {
			runtime.Gosched()
		}
	}
}

// Stats counts transaction outcomes per execution path.
type Stats struct {
	Commits [NumPaths]uint64
	Aborts  [NumPaths][NumCauses]uint64
	// Extensions counts snapshot extensions (Tx.extend): reads of a cell
	// newer than the attempt's snapshot that moved the snapshot forward
	// instead of aborting the attempt.
	Extensions [NumPaths]uint64
}

func (s *Stats) add(o *Stats) {
	for p := 0; p < NumPaths; p++ {
		s.Commits[p] += atomic.LoadUint64(&o.Commits[p])
		s.Extensions[p] += atomic.LoadUint64(&o.Extensions[p])
		for c := 0; c < NumCauses; c++ {
			s.Aborts[p][c] += atomic.LoadUint64(&o.Aborts[p][c])
		}
	}
}

// Merge adds another snapshot into s. Unlike add it reads o without
// atomics, so o must be a snapshot (e.g. a TM.Stats result), not a live
// per-thread accumulator.
func (s *Stats) Merge(o Stats) {
	for p := 0; p < NumPaths; p++ {
		s.Commits[p] += o.Commits[p]
		s.Extensions[p] += o.Extensions[p]
		for c := 0; c < NumCauses; c++ {
			s.Aborts[p][c] += o.Aborts[p][c]
		}
	}
}

// TotalAborts returns the number of aborts on path p across all causes.
func (s *Stats) TotalAborts(p PathKind) uint64 {
	var n uint64
	for c := 0; c < NumCauses; c++ {
		n += s.Aborts[p][c]
	}
	return n
}

// Thread is a per-goroutine transactional context. A Thread must not be
// shared between goroutines concurrently.
type Thread struct {
	tm    *TM
	tx    Tx
	inTx  bool
	stats Stats
	// faults is the TM's fault plan (Config.Faults), consulted by
	// Tx.inject on armed attempts.
	faults *fault.Plan
	// ab is the payload every abort of this thread's transactions
	// unwinds with. Panicking with its address boxes nothing, so an
	// aborted attempt allocates nothing; Tx.unwind fills it and runTx's
	// recover reads it back.
	ab txAbort
}

// Stats returns a snapshot of this thread's transaction statistics. The
// counters are read through the same atomic path the owning goroutine
// writes them with, so a reporting goroutine may call this concurrently
// with transaction activity.
func (th *Thread) Stats() Stats {
	var s Stats
	s.add(&th.stats)
	return s
}

// txAbort is the panic payload used to unwind an aborting transaction
// (always &Thread.ab). It never escapes Thread.Atomic.
type txAbort struct {
	cause AbortCause
	code  uint8
}

type readEntry struct {
	ver  *atomic.Uint64
	seen uint64
}

// entryKind says what a write-set entry does to its cell at commit.
type entryKind uint8

const (
	entWord entryKind = iota // Word.Set: store word
	entRef                   // Ref.Set: store ptr
	entPair                  // Pair.Set: store (word, word2)
)

// writeEntry is one buffered write. It addresses the cell by two raw
// pointers instead of an interface value — ver, the cell's version word
// (unique per cell, so it is also the entry's identity), and c, the
// cell's value storage — which lets commit apply every kind of entry
// with a plain switch and keeps the entry at 48 bytes, well under a
// cache line: growing it (88 bytes was tried) measurably slows commits
// of small write sets.
type writeEntry struct {
	ver *atomic.Uint64
	// c is the cell's value storage: *atomic.Uint64 for a Word,
	// *unsafe.Pointer for a Ref, *[2]atomic.Uint64 for a Pair.
	c     unsafe.Pointer
	word  uint64
	word2 uint64         // second component of a Pair value
	ptr   unsafe.Pointer // buffered *T of an entRef entry
	kind  entryKind
}

// sigWords is the size of the write-set signature in 64-bit words.
const sigWords = 4

// Tx is a single transaction attempt. It is only valid inside the
// function passed to Thread.Atomic and must not be retained.
type Tx struct {
	th     *Thread
	rv     uint64
	reads  []readEntry
	writes []writeEntry
	// sig is a 256-bit signature (a one-hash Bloom filter) of the
	// version-word addresses in writes. Every transactional read, and
	// every first write of a cell, asks "is this cell in my write set?"
	// and the answer is almost always no; a clear signature bit says so
	// in O(1), where scanning writes costs O(len(writes)) per access —
	// quadratic in the size of a commit. A set bit only means "maybe":
	// the scan then runs as before, so a saturated signature degrades to
	// the scan, never to a wrong answer.
	sig  [sigWords]uint64
	path PathKind
	// pinned marks an attempt whose snapshot the caller chose
	// (Thread.AtomicAt): it never extends.
	pinned bool
	// held is the cell whose lock ended the attempt (Abort.held).
	held *atomic.Uint64

	// Per-access configuration. It is fixed for the life of the thread
	// (TM.cfg and the fault plan never change), so bind copies it here
	// once and an access finds it in the Tx it already holds instead of
	// chasing tx.th.tm.cfg — three dependent loads — before touching
	// data.
	//
	// armed is true when admitting an access takes more than the
	// capacity compare: a fault plan is set, so an injected failure may
	// be due. The common unarmed access pays one branch for both.
	armed    bool
	readCap  int
	writeCap int
	clk      *Clock
}

// bind attaches the Tx to its thread and hoists the TM's per-access
// configuration into it.
func (tx *Tx) bind(th *Thread) {
	tm := th.tm
	tx.th = th
	tx.armed = th.faults != nil
	tx.readCap = tm.cfg.ReadCapacity
	tx.writeCap = tm.cfg.WriteCapacity
	tx.clk = &tm.clock
}

// reset clears the transaction log for a new attempt. The snapshot (rv)
// is established afterwards by begin.
func (tx *Tx) reset(path PathKind) {
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.sig = [sigWords]uint64{}
	tx.path = path
}

// drop forgets the logged accesses of an abandoned attempt. The write
// set buffers ptr values and the per-thread Tx lives as long as the
// thread, so the entries must be zeroed — not just truncated — or the
// dead attempt would pin arbitrary nodes against reclamation.
func (tx *Tx) drop() {
	clear(tx.reads[:cap(tx.reads)])
	clear(tx.writes[:cap(tx.writes)])
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.sig = [sigWords]uint64{}
}

// begin establishes the attempt's snapshot.
func (tx *Tx) begin() { tx.rv, tx.pinned = tx.clk.Now(), false }

// Abort explicitly aborts the transaction with a user code, like the
// xabort instruction. It does not return.
func (tx *Tx) Abort(code uint8) { tx.unwind(CauseExplicit, code) }

// abort aborts the transaction for an internal reason. It does not
// return.
func (tx *Tx) abort(cause AbortCause) { tx.unwind(cause, 0) }

// unwind leaves the transaction body by panicking with the thread's own
// abort payload (see Thread.ab).
func (tx *Tx) unwind(cause AbortCause, code uint8) {
	a := &tx.th.ab
	a.cause, a.code = cause, code
	panic(a)
}

// inject fails an access on purpose: the fault plan's shot at forcing
// an abort by cause (fault.PointTxAccess), spurious unless the rule
// names another. Only armed attempts get here, so the plan is set.
func (tx *Tx) inject() {
	if eff, ok := tx.th.faults.At(fault.PointTxAccess); ok {
		cause := CauseSpurious
		if eff.Cause != 0 {
			cause = AbortCause(eff.Cause)
		}
		tx.abort(cause)
	}
}

// readable reports whether a cell whose version word reads v can be read
// at the transaction's snapshot as is: unlocked and stamped no later
// than the snapshot. It is the inlined common case of every
// transactional read; anything else is readVersion's.
func (tx *Tx) readable(v uint64) bool { return v&lockBit == 0 && v>>1 <= tx.rv }

// readVersion loads a cell version for a transactional read, spinning
// briefly on locked cells (a commit in flight) and aborting on conflict.
// A cell stamped past the snapshot extends it (extend) or, for a pinned
// attempt, aborts.
func (tx *Tx) readVersion(ver *atomic.Uint64) uint64 {
	for i := 0; ; i++ {
		v := ver.Load()
		if v&lockBit == 0 {
			if v>>1 > tx.rv {
				tx.extend(v >> 1)
			}
			return v
		}
		if i >= lockSpin {
			tx.held = ver
			tx.abort(CauseConflict)
		}
	}
}

// extend moves the snapshot past a cell stamped v > rv instead of
// aborting (LSA's snapshot extension). It raises the clock to v, takes
// the clock's value then as the new snapshot, and re-checks every read
// so far for the exact version it logged: any commit stamped at or
// before the new snapshot locked its write set before the clock got
// there, so an unchanged, unlocked read set holds at the new snapshot
// together with the cell being read. A changed read aborts the attempt
// with CauseConflict, as one locked by a commit in flight does (which
// also names the cell, Abort.held). This only removes aborts of TL2's
// own making: hardware tracks the lines a transaction read, not a
// snapshot time, and does not abort on a line written by a commit that
// touched nothing the transaction read.
//
// A pinned attempt (AtomicAt) never extends: its snapshot is the
// caller's, shared with attempts on other TMs. It raises the clock all
// the same, so a fresh snapshot covers the cell, and aborts.
func (tx *Tx) extend(v uint64) {
	rv := tx.clk.advance(v)
	if tx.pinned {
		tx.abort(CauseConflict)
	}
	for i := range tx.reads {
		rd := &tx.reads[i]
		if cur := rd.ver.Load(); cur != rd.seen {
			if cur&lockBit != 0 {
				tx.held = rd.ver
			}
			tx.abort(CauseConflict)
		}
	}
	tx.rv = rv
	atomic.AddUint64(&tx.th.stats.Extensions[tx.path], 1)
}

// admit vets one access before it joins the read or write set, aborting
// the attempt instead of returning to reject it. n is the entry count
// the access needs admitted — the set's size for an append, the entry's
// index for an overwrite (which never grows the footprint, so it can
// only be failed by injection) — and limit the set's capacity. An
// unarmed attempt within capacity is admitted here, inline; everything
// else is admitSlow's.
func (tx *Tx) admit(n, limit int) {
	if tx.armed || n >= limit {
		tx.admitSlow(n, limit)
	}
}

// admitSlow is admit past the inline filter: injected failures first,
// then the capacity limit.
func (tx *Tx) admitSlow(n, limit int) {
	tx.inject()
	if n >= limit {
		tx.abort(CauseCapacity)
	}
}

func (tx *Tx) logRead(ver *atomic.Uint64, seen uint64) {
	tx.admit(len(tx.reads), tx.readCap)
	tx.reads = append(tx.reads, readEntry{ver: ver, seen: seen})
}

// sigBit maps a version-word address to its bit of the write-set
// signature: the word index and the mask within it. Cells are 8-byte
// aligned and sit at small strides inside a node, so the address is
// scrambled by a Fibonacci multiply before its top 8 bits are taken.
func sigBit(ver *atomic.Uint64) (uint, uint64) {
	h := (uint64(uintptr(unsafe.Pointer(ver))) >> 3) * 0x9e3779b97f4a7c15 >> 56
	return uint(h >> 6), 1 << (h & 63)
}

// findWrite is the O(1) write-set membership test every transactional
// Get starts with: false means the cell with the given version word is
// certainly not in the write set; true means it may be, and readBack
// must scan. It has to stay small enough to inline into the Gets. A
// read-only attempt answers from the length alone (range scans pay this
// once per cell, so not even the hash is affordable), a writing one
// from the signature.
func (tx *Tx) findWrite(ver *atomic.Uint64) bool {
	if len(tx.writes) == 0 {
		return false
	}
	w, m := sigBit(ver)
	return tx.sig[w]&m != 0
}

// readBack returns the write-set entry a transactional read of the cell
// must return the buffered value of, or nil.
func (tx *Tx) readBack(ver *atomic.Uint64) *writeEntry {
	i := tx.writeIndex(ver)
	if i < 0 {
		return nil
	}
	return &tx.writes[i]
}

// writeIndex scans the write set for the entry with the given version
// word and returns its index, or -1. Callers consult the signature
// first (findWrite, or sigBit when they go on to set the bit).
func (tx *Tx) writeIndex(ver *atomic.Uint64) int {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].ver == ver {
			return i
		}
	}
	return -1
}

// writeSlot returns the write-set entry of the cell (ver, c) for a
// write of the given kind, appending one — zero word, word2 and ptr —
// if the cell is not in the set yet; the caller stores its operand into
// the entry.
//
// The cell is addressed by the raw pointers of its version word and
// value storage rather than through an interface: this runs on every
// transactional write, where both the dynamic dispatch and the
// interface comparison it would take to dedup entries are measurable.
func (tx *Tx) writeSlot(ver *atomic.Uint64, c unsafe.Pointer, kind entryKind) *writeEntry {
	sw, sm := sigBit(ver)
	if tx.sig[sw]&sm != 0 {
		if i := tx.writeIndex(ver); i >= 0 {
			tx.admit(i, tx.writeCap)
			return &tx.writes[i]
		}
	}
	tx.admit(len(tx.writes), tx.writeCap)
	tx.sig[sw] |= sm
	// Append a zero entry and fill it in place: a composite literal
	// would be assembled on the stack word by word and copied over in
	// 16-byte moves, which the CPU cannot forward from the narrower
	// stores — a stall that was the hottest line of a writing commit.
	tx.writes = append(tx.writes, writeEntry{})
	w := &tx.writes[len(tx.writes)-1]
	w.ver, w.c, w.kind = ver, c, kind
	return w
}

// ownsLock reports whether ver is the version word of a cell in the
// write set (and therefore locked by this transaction during commit).
func (tx *Tx) ownsLock(ver *atomic.Uint64) bool {
	return tx.findWrite(ver) && tx.writeIndex(ver) >= 0
}

// releaseLocks unlocks the first n write-set cells, restoring their
// pre-lock versions (the lock bit is all that locking changed).
func (tx *Tx) releaseLocks(n int) {
	for i := 0; i < n; i++ {
		ver := tx.writes[i].ver
		ver.Store(ver.Load() &^ lockBit)
	}
}

// commit attempts to commit the transaction, returning CauseNone on
// success.
//
// Locking the write set, an entry that finds its cell locked aborts
// rather than waits — this is how HTM resolves write-write contention.
// The writes are stamped one past the clock (see stamp), and the clock
// is left where it is (TL2's GV5): two commits never meet on the clock's
// cache line,
// as two hardware transactions on disjoint lines never meet anywhere.
// The first reader that meets a stamp past its snapshot raises the
// clock to it (Tx.extend). Stamps are not unique, so nothing proves the
// read set unwritten since begin, and it is validated on every commit.
func (tx *Tx) commit() AbortCause {
	if len(tx.writes) == 0 {
		// Read-only transactions are consistent at rv by construction.
		return CauseNone
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		v := w.ver.Load()
		if v&lockBit != 0 || !w.ver.CompareAndSwap(v, v|lockBit) {
			tx.held = w.ver
			tx.releaseLocks(i)
			return CauseConflict
		}
	}
	// Sampled with the write set locked: a snapshot at or past the stamp
	// is taken after the locks, so it sees every write or a lock.
	wv := tx.clk.Now() + 1
	for i := range tx.reads {
		rd := &tx.reads[i]
		v := rd.ver.Load()
		if v == rd.seen {
			continue
		}
		if v == rd.seen|lockBit && tx.ownsLock(rd.ver) {
			continue
		}
		if v&lockBit != 0 {
			tx.held = rd.ver
		}
		tx.releaseLocks(len(tx.writes))
		return CauseConflict
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		switch w.kind {
		case entWord:
			(*atomic.Uint64)(w.c).Store(w.word)
		case entRef:
			atomic.StorePointer((*unsafe.Pointer)(w.c), w.ptr)
		case entPair:
			val := (*[2]atomic.Uint64)(w.c)
			val[0].Store(w.word)
			val[1].Store(w.word2)
		}
		w.ver.Store(stamp(w.ver.Load(), wv))
	}
	return CauseNone
}

// Atomic runs fn as a single transaction attempt on the given path and
// reports whether it committed, together with the abort details
// otherwise. Like hardware transactions, an attempt that aborts has no
// effect on shared memory; unlike hardware, fn is re-entered from the top
// only if the caller retries.
//
// fn must not start nested transactions, perform non-transactional cell
// operations, or retain tx. Panics other than transaction aborts
// propagate to the caller.
func (th *Thread) Atomic(path PathKind, fn func(tx *Tx)) (bool, Abort) {
	if th.inTx {
		panic("htm: nested transaction")
	}
	th.inTx = true
	tx := &th.tx
	tx.reset(path)
	tx.begin()
	return th.finish(tx, path, fn)
}

// finish runs the attempt Atomic or AtomicAt set up, counts its outcome
// and reports it.
func (th *Thread) finish(tx *Tx, path PathKind, fn func(tx *Tx)) (bool, Abort) {
	cause, code := th.runTx(tx, fn)
	th.inTx = false
	if cause == CauseNone {
		atomic.AddUint64(&th.stats.Commits[path], 1)
		return true, Abort{}
	}
	atomic.AddUint64(&th.stats.Aborts[path][cause], 1)
	held := tx.held
	tx.held = nil
	return false, Abort{Cause: cause, Code: code, held: held}
}

// AtomicAt is Atomic with the attempt's snapshot chosen by the caller: rv
// is a value the caller read from this TM's clock earlier, and the
// attempt sees the cells as they were when the clock reached rv: it
// aborts with CauseConflict on any cell stamped past rv, and never
// extends its snapshot (Tx.extend). That is what lets one reader hold
// transactions of several TMs at snapshots taken at a single instant
// (internal/shard's pinned cross-shard read): each TM has its own clock,
// so no one transaction can span them, but a snapshot of each clock,
// once read, stays valid for as long as the reader likes.
//
// A commit stamps its writes one past the clock, so a value read with
// Clock.Now may predate the newest commits, and the attempt aborts on
// their cells (raising the clock, so the next snapshot covers them).
// Clock.Pin takes a value that covers every commit already stamped.
//
// The caller guarantees that whatever keeps memory the attempt may reach
// from being reused (the engine's reclamation bracket) already held when
// rv was read, just as it holds before Atomic's own begin. AtomicAt with
// a value the clock has not reached panics.
func (th *Thread) AtomicAt(path PathKind, rv uint64, fn func(tx *Tx)) (bool, Abort) {
	tx := &th.tx
	if th.inTx {
		panic("htm: nested transaction")
	}
	if rv > tx.clk.Now() {
		panic("htm: AtomicAt snapshot is ahead of the TM's clock (a value of another TM's clock?)")
	}
	th.inTx = true
	tx.reset(path)
	tx.rv, tx.pinned = rv, true
	return th.finish(tx, path, fn)
}

// runTx executes fn and commit, translating abort panics into a cause.
func (th *Thread) runTx(tx *Tx, fn func(tx *Tx)) (cause AbortCause, code uint8) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*txAbort); ok && a == &th.ab {
				cause, code = a.cause, a.code
				return
			}
			// A foreign panic is unwinding the attempt past Atomic:
			// tear the attempt down here, since Atomic's post-call
			// code will never run. drop (rather than wait for the
			// next reset) so the dead write set's ptr entries don't
			// pin nodes against reclamation on a thread that never
			// transacts again.
			tx.drop()
			th.inTx = false
			panic(r)
		}
	}()
	fn(tx)
	return tx.commit(), 0
}
