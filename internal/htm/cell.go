package htm

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Version-word encoding: version<<1 | lockBit.
const lockBit = 1

// stamp returns the version word that unlocks a cell after a write at
// clock value t, given the cell's version word before the write (old,
// locked or not): version t, unless the cell's own version is already t
// or later — two writes stamped before the clock moved — and then one
// past it. So a write always changes the version word, and a reader that
// finds it equal before and after loading the value (a Pair's two words
// above all) knows that no write came between; and the stamp is still
// past the clock as the writer sampled it, which is all the snapshot
// rules need.
func stamp(old, t uint64) uint64 {
	if nv := t << 1; nv > old {
		return nv
	}
	return old&^lockBit + 2
}

// Non-transactional lock acquisition backoff bounds: an acquirer that
// loses the CAS spins reading the version word for a bounded,
// exponentially growing number of iterations before retrying, and yields
// the processor once the bound is saturated. Under contention this keeps
// most acquirers off the cache line (the raw CAS spin it replaces turned
// every waiter into a line-invalidation source — a contention amplifier
// on exactly the multi-writer workloads per-TM clocks exist for).
const (
	backoffInitial = 4
	backoffMax     = 1024
)

// acquireNonTx locks a version word for a non-transactional operation
// (these critical sections are a handful of instructions long) and
// returns the pre-lock version word. Waiting uses bounded exponential
// backoff rather than a raw CAS spin.
func acquireNonTx(ver *atomic.Uint64) uint64 {
	v := ver.Load()
	if v&lockBit == 0 && ver.CompareAndSwap(v, v|lockBit) {
		return v // uncontended fast path: one load, one CAS
	}
	backoff := backoffInitial
	for {
		// Wait until the word reads unlocked before touching it with a
		// CAS again, pausing exponentially longer each round.
		for i := 0; ; i++ {
			v = ver.Load()
			if v&lockBit == 0 {
				break
			}
			if i >= backoff {
				runtime.Gosched()
				i = 0
			}
		}
		if ver.CompareAndSwap(v, v|lockBit) {
			return v
		}
		if backoff < backoffMax {
			backoff <<= 1
		} else {
			runtime.Gosched()
		}
	}
}

// Word is a shared uint64 cell. The zero value is an unlocked cell
// holding 0 bound to no clock: it supports transactional access and
// non-transactional reads immediately, but must be bound to the owning
// TM's clock (Bind) before any non-transactional mutation.
type Word struct {
	clk *Clock
	ver atomic.Uint64
	val atomic.Uint64
}

// Bind associates the cell with the version clock of the TM whose
// transactions access it. Non-transactional mutations advance this clock
// (keeping the TM's transactions strongly atomic with respect to them),
// so they panic on an unbound cell. Bind before the cell is shared.
// Rebinding to the same clock is a no-op; rebinding to a different
// clock panics — a cell serving two clock domains would silently break
// strong atomicity in one of them (e.g. one Indicator shared between
// two engines), so it must fail loudly instead.
func (w *Word) Bind(c *Clock) { bindClock(&w.clk, c) }

func (w *Word) clock() *Clock { return boundClock(w.clk) }

// bindClock is the shared body of the cells' Bind methods.
func bindClock(clk **Clock, c *Clock) {
	if *clk != nil && *clk != c {
		panic("htm: cell already bound to a different TM clock (one cell cannot serve two clock domains)")
	}
	*clk = c
}

// boundClock returns a cell's bound clock for a non-transactional
// mutation, diagnosing a miswired cell loudly rather than failing with a
// nil dereference.
func boundClock(clk *Clock) *Clock {
	if clk == nil {
		panic("htm: non-transactional mutation of a cell not bound to a TM clock (call Bind first)")
	}
	return clk
}

// Init sets the cell's value without version bookkeeping. It must only
// be used on cells that are not reachable by any other thread: fields of
// a freshly allocated node before it is published, or of a pooled node
// that came back through a grace period (no reader, stale or otherwise,
// can hold it). The cell keeps the version it has — 0 when fresh — which
// is no later than the store that will publish the node, so every
// transaction able to reach the cell may read it. Because nobody else can
// be looking, the store is a plain one, ordered before the publishing
// store like any other initialization; an atomic store is an XCHG here,
// and a recycled leaf pays one per slot.
func (w *Word) Init(v uint64) { *(*uint64)(unsafe.Pointer(&w.val)) = v }

// Recycle re-initializes a cell of a pooled node for reuse. Unlike Init
// it is safe while stale transactional readers may still hold a
// reference to the node: it locks the version word (waiting out a zombie
// commit that transiently locked it), writes the value under the lock,
// and unlocks with the version one past the clock's current value (see
// stamp). Every snapshot taken so far is at most the clock's value, so
// any transaction that may still hold the node meets a version beyond
// its snapshot instead of reading the recycled value. A pinned one
// aborts there. Any other extends its snapshot (Tx.extend), and the
// extension aborts it: every tree reaches a node through a link it read
// (and logged), and the removal changed that link. Stamping the clock's
// value itself would not do: the removal's commit may have stamped the
// link one past the clock, and a reader whose snapshot is the clock's
// value would then read the recycled cell without extending.
//
// Recycle must only be called while the node is privately owned (drawn
// from a pool, not yet republished); non-transactional readers must be
// excluded by the caller's reclamation discipline (nodepool: a node is
// reused without a grace period only when every possible reader is
// transactional).
func (w *Word) Recycle(v uint64) {
	c := w.clock()
	old := acquireNonTx(&w.ver)
	w.val.Store(v)
	w.ver.Store(stamp(old, c.Now()+1))
}

// Get reads the cell. With a nil tx it performs a non-transactional
// atomic read; otherwise the read joins tx's read set and may abort tx.
func (w *Word) Get(tx *Tx) uint64 {
	if tx == nil {
		for i := 0; ; i++ {
			v1 := w.ver.Load()
			if v1&lockBit == 0 {
				val := w.val.Load()
				if w.ver.Load() == v1 {
					return val
				}
			}
			if i%128 == 127 {
				runtime.Gosched()
			}
		}
	}
	if tx.findWrite(&w.ver) {
		if buf := tx.readBack(&w.ver); buf != nil {
			return buf.word
		}
	}
	v := w.ver.Load()
	if !tx.readable(v) {
		v = tx.readVersion(&w.ver)
	}
	val := w.val.Load()
	if w.ver.Load() != v {
		tx.abort(CauseConflict)
	}
	tx.logRead(&w.ver, v)
	return val
}

// Peek reads the cell's value with a single atomic load — no version
// check, no snapshot validation, no read-set entry. It is only sound
// for cells that are immutable for as long as any thread can hold the
// enclosing node: write-once cells, and cells of pooled nodes that are
// reused exclusively after a grace period (so no reader — stale or
// otherwise — can ever observe the rewrite). Cells of nodes that may
// recycle immediately (nodepool's immediate list) must use GetStable
// instead.
func (w *Word) Peek() uint64 { return w.val.Load() }

// GetStable reads a cell whose value is immutable while its enclosing
// node is reachable — only pool recycling ever rewrites it (e.g. a
// pooled node's routing key). The read is validated against the
// transaction's snapshot exactly like Get (a recycled cell's advanced
// version aborts a stale reader: a pinned one at once, any other when
// extending its snapshot re-checks the read set), but it does not join
// the read set: the only event that can change the cell is a recycle, a
// recycle implies the node was first unlinked, and the unlink already
// invalidates the read-set entry of the pointer that led here. Skipping
// the read-set entry keeps hot search loops at one logged read per
// node instead of two.
//
// The caller asserts the cell is never written transactionally (it is
// not looked up in the write set).
func (w *Word) GetStable(tx *Tx) uint64 {
	if tx == nil {
		return w.Get(nil)
	}
	v := w.ver.Load()
	if !tx.readable(v) {
		v = tx.readVersion(&w.ver)
	}
	val := w.val.Load()
	if w.ver.Load() != v {
		tx.abort(CauseConflict)
	}
	return val
}

// Set writes the cell. With a nil tx the store is immediate (locking the
// cell and advancing the bound TM clock); otherwise it is buffered until
// tx commits.
func (w *Word) Set(tx *Tx, v uint64) {
	if tx == nil {
		c := w.clock() // resolve before locking: a miswired cell must not panic while holding the lock
		old := acquireNonTx(&w.ver)
		nv := stamp(old, c.tick())
		w.val.Store(v)
		w.ver.Store(nv)
		return
	}
	tx.writeSlot(&w.ver, unsafe.Pointer(&w.val), entWord).word = v
}

// CAS atomically replaces old with new and reports whether it did. Inside
// a transaction it reduces to a read, a comparison and a buffered write —
// exactly the sequential-code transformation of Section 4 of the paper.
func (w *Word) CAS(tx *Tx, old, new uint64) bool {
	if tx != nil {
		if w.Get(tx) != old {
			return false
		}
		w.Set(tx, new)
		return true
	}
	c := w.clock()
	prev := acquireNonTx(&w.ver)
	if w.val.Load() != old {
		w.ver.Store(prev) // release without a version bump: nothing changed
		return false
	}
	nv := stamp(prev, c.tick())
	w.val.Store(new)
	w.ver.Store(nv)
	return true
}

// Add atomically adds delta (which may be negative via two's complement)
// to the cell outside any transaction and returns the new value.
func (w *Word) Add(delta uint64) uint64 {
	c := w.clock()
	old := acquireNonTx(&w.ver)
	nv := stamp(old, c.tick())
	v := w.val.Load() + delta
	w.val.Store(v)
	w.ver.Store(nv)
	return v
}

// Pair is a shared cell holding two uint64 values under one version
// word: the two are read, and changed, as a unit. It exists for values
// that always move together — a leaf's order permutation and size, a
// leaf entry's key and value — where two Words would cost every update two
// write-set entries, two commit locks and two version stores (and every
// read two read-set entries) for what is one logical change. Hardware
// tracks such neighbours as one cache line; a Pair is the simulator's
// rendering of that. The zero value is an unlocked (0, 0).
//
// Unlike Word and Ref, a Pair carries no clock: a tree keeps seventeen
// of them per leaf, where a clock pointer would be a quarter of each. Its two non-transactional mutators, Store and Recycle, take the
// owning TM's clock as an argument instead, so there is nothing to bind.
// A Pair takes buffered values (Set) only: it has no CAS.
type Pair struct {
	ver atomic.Uint64
	val [2]atomic.Uint64
}

// Init sets the cell's values without version bookkeeping. See
// Word.Init.
func (p *Pair) Init(a, b uint64) {
	*(*[2]uint64)(unsafe.Pointer(&p.val)) = [2]uint64{a, b}
}

// Store writes both values outside any transaction, immediately: it
// locks the cell and stamps it with a tick of c, the clock of the TM
// whose transactions access the cell (keeping them strongly atomic with
// respect to the store, as Word.Set with a nil tx does). A transaction
// that read the cell before the store aborts; one begun after it reads
// the new values.
func (p *Pair) Store(c *Clock, a, b uint64) {
	old := acquireNonTx(&p.ver)
	nv := stamp(old, c.tick())
	p.val[0].Store(a)
	p.val[1].Store(b)
	p.ver.Store(nv)
}

// Recycle re-initializes a pooled cell for reuse, stamping it one past
// c's current value; see Word.Recycle. c is the clock of the TM whose
// transactions access the cell.
func (p *Pair) Recycle(c *Clock, a, b uint64) {
	old := acquireNonTx(&p.ver)
	p.val[0].Store(a)
	p.val[1].Store(b)
	p.ver.Store(stamp(old, c.Now()+1))
}

// Get reads both values as of one instant. With a nil tx it performs a
// non-transactional atomic read; otherwise the read joins tx's read set
// and may abort tx.
func (p *Pair) Get(tx *Tx) (a, b uint64) {
	if tx == nil {
		for i := 0; ; i++ {
			v1 := p.ver.Load()
			if v1&lockBit == 0 {
				a, b = p.val[0].Load(), p.val[1].Load()
				if p.ver.Load() == v1 {
					return a, b
				}
			}
			if i%128 == 127 {
				runtime.Gosched()
			}
		}
	}
	if tx.findWrite(&p.ver) {
		if buf := tx.readBack(&p.ver); buf != nil {
			return buf.word, buf.word2
		}
	}
	v := p.ver.Load()
	if !tx.readable(v) {
		v = tx.readVersion(&p.ver)
	}
	a, b = p.val[0].Load(), p.val[1].Load()
	if p.ver.Load() != v {
		tx.abort(CauseConflict)
	}
	tx.logRead(&p.ver, v)
	return a, b
}

// Set writes both values in tx, buffered until tx commits. tx must not be
// nil: outside a transaction, write with Store.
func (p *Pair) Set(tx *Tx, a, b uint64) {
	e := tx.writeSlot(&p.ver, unsafe.Pointer(&p.val), entPair)
	e.word, e.word2 = a, b
}

// Ref is a shared pointer cell holding a *T. The zero value is an
// unlocked cell holding nil; like Word, it must be bound to the owning
// TM's clock before any non-transactional mutation.
type Ref[T any] struct {
	clk *Clock
	ver atomic.Uint64
	// val holds the *T. It is an untyped pointer accessed through
	// load/store so that the (non-generic) commit can store a buffered
	// write through writeEntry.c without boxing the pointer or
	// dispatching on the cell's type; nothing but a *T is ever stored.
	val unsafe.Pointer
}

func (r *Ref[T]) load() *T   { return (*T)(atomic.LoadPointer(&r.val)) }
func (r *Ref[T]) store(p *T) { atomic.StorePointer(&r.val, unsafe.Pointer(p)) }

// Bind associates the cell with the version clock of the TM whose
// transactions access it. See Word.Bind; rebinding to a different clock
// panics.
func (r *Ref[T]) Bind(c *Clock) { bindClock(&r.clk, c) }

func (r *Ref[T]) clock() *Clock { return boundClock(r.clk) }

// Init sets the cell's value without version bookkeeping. See Word.Init.
func (r *Ref[T]) Init(p *T) { r.val = unsafe.Pointer(p) }

// Recycle re-initializes a pooled cell for reuse; see Word.Recycle.
func (r *Ref[T]) Recycle(p *T) {
	c := r.clock()
	old := acquireNonTx(&r.ver)
	r.store(p)
	r.ver.Store(stamp(old, c.Now()+1))
}

// Get reads the cell. With a nil tx it performs a non-transactional
// atomic read; otherwise the read joins tx's read set and may abort tx.
func (r *Ref[T]) Get(tx *Tx) *T {
	if tx == nil {
		for i := 0; ; i++ {
			v1 := r.ver.Load()
			if v1&lockBit == 0 {
				p := r.load()
				if r.ver.Load() == v1 {
					return p
				}
			}
			if i%128 == 127 {
				runtime.Gosched()
			}
		}
	}
	if tx.findWrite(&r.ver) {
		if buf := tx.readBack(&r.ver); buf != nil {
			return (*T)(buf.ptr)
		}
	}
	v := r.ver.Load()
	if !tx.readable(v) {
		v = tx.readVersion(&r.ver)
	}
	p := r.load()
	if r.ver.Load() != v {
		tx.abort(CauseConflict)
	}
	tx.logRead(&r.ver, v)
	return p
}

// Set writes the cell. With a nil tx the store is immediate; otherwise it
// is buffered until tx commits.
func (r *Ref[T]) Set(tx *Tx, p *T) {
	if tx == nil {
		c := r.clock()
		old := acquireNonTx(&r.ver)
		nv := stamp(old, c.tick())
		r.store(p)
		r.ver.Store(nv)
		return
	}
	tx.writeSlot(&r.ver, unsafe.Pointer(&r.val), entRef).ptr = unsafe.Pointer(p)
}

// CAS atomically replaces old with new (pointer identity) and reports
// whether it did.
func (r *Ref[T]) CAS(tx *Tx, old, new *T) bool {
	if tx != nil {
		if r.Get(tx) != old {
			return false
		}
		r.Set(tx, new)
		return true
	}
	c := r.clock()
	prev := acquireNonTx(&r.ver)
	if r.load() != old {
		r.ver.Store(prev)
		return false
	}
	nv := stamp(prev, c.tick())
	r.store(new)
	r.ver.Store(nv)
	return true
}
