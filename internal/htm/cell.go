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
// on exactly the multi-writer workloads).
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
// holding 0, ready for every access.
type Word struct {
	ver atomic.Uint64
	val atomic.Uint64
}

// Bind does nothing: every cell stamps its versions from the one
// version clock (Clock), so there is no clock to attach. It is kept,
// like Ref.Bind, only because the benchmark's layer ladder
// (bench/layers.go) calls it.
func (w *Word) Bind(*Clock) {}

// Init sets the cell's value without version bookkeeping. It must only
// be used on cells that are not reachable by any other thread: fields of
// a freshly allocated node before it is published, or of a pooled node,
// which came back through a grace period (no reader can hold it). The
// cell keeps the version it has — 0 when fresh — which is no later than
// the store that will publish the node, so every transaction able to
// reach the cell may read it. Because nobody else can be looking, the
// store is a plain one, ordered before the publishing store like any
// other initialization; an atomic store is an XCHG here, and a reused
// leaf pays one per slot.
func (w *Word) Init(v uint64) { *(*uint64)(unsafe.Pointer(&w.val)) = v }

// Get reads the cell. With a nil tx it performs a non-transactional
// atomic read; otherwise the read joins tx's read set and may abort tx.
//
// The common read is answered here, in one call: the version word, then
// the value, then — for a nil tx, when the cell was unlocked, and for a
// tx, when Tx.fastRead admits the version — a re-read of the version,
// which must be unchanged. Every other read is get's, which decides it
// from the top.
func (w *Word) Get(tx *Tx) uint64 {
	v := w.ver.Load()
	val := w.val.Load()
	if tx == nil {
		if v&lockBit == 0 && w.ver.Load() == v {
			return val
		}
	} else if tx.fastRead(v) {
		if w.ver.Load() != v {
			tx.abort(CauseConflict)
		}
		tx.logFast(&w.ver, v)
		return val
	}
	return w.get(tx)
}

// get is Get's slow half: a nil-tx read that met a lock or a write waits
// for a stable value, and a transactional read reads back a buffered
// write, waits out or extends past a newer version, and is admitted
// (Tx.logRead).
func (w *Word) get(tx *Tx) uint64 {
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

// Set writes the cell. With a nil tx the store is immediate (locking the
// cell and ticking the clock); otherwise it is buffered until tx
// commits.
func (w *Word) Set(tx *Tx, v uint64) {
	if tx == nil {
		old := acquireNonTx(&w.ver)
		nv := stamp(old, clock.tick())
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
	prev := acquireNonTx(&w.ver)
	if w.val.Load() != old {
		w.ver.Store(prev) // release without a version bump: nothing changed
		return false
	}
	nv := stamp(prev, clock.tick())
	w.val.Store(new)
	w.ver.Store(nv)
	return true
}

// Add atomically adds delta (which may be negative via two's complement)
// to the cell outside any transaction and returns the new value.
func (w *Word) Add(delta uint64) uint64 {
	old := acquireNonTx(&w.ver)
	nv := stamp(old, clock.tick())
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
// locks the cell and stamps it with a tick of the clock, as Word.Set
// with a nil tx does. A transaction that read the cell before the store
// aborts; one begun after it reads the new values.
func (p *Pair) Store(a, b uint64) {
	old := acquireNonTx(&p.ver)
	nv := stamp(old, clock.tick())
	p.val[0].Store(a)
	p.val[1].Store(b)
	p.ver.Store(nv)
}

// Get reads both values as of one instant. With a nil tx it performs a
// non-transactional atomic read; otherwise the read joins tx's read set
// and may abort tx. Its common read is answered inline, as Word.Get's.
func (p *Pair) Get(tx *Tx) (a, b uint64) {
	v := p.ver.Load()
	a, b = p.val[0].Load(), p.val[1].Load()
	if tx == nil {
		if v&lockBit == 0 && p.ver.Load() == v {
			return a, b
		}
	} else if tx.fastRead(v) {
		if p.ver.Load() != v {
			tx.abort(CauseConflict)
		}
		tx.logFast(&p.ver, v)
		return a, b
	}
	return p.get(tx)
}

// get is Get's slow half; see Word.get.
func (p *Pair) get(tx *Tx) (a, b uint64) {
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
// unlocked cell holding nil, ready for every access.
type Ref[T any] struct {
	ver atomic.Uint64
	// val holds the *T. It is an untyped pointer accessed through
	// load/store so that the (non-generic) commit can store a buffered
	// write through writeEntry.c without boxing the pointer or
	// dispatching on the cell's type; nothing but a *T is ever stored.
	val unsafe.Pointer
}

func (r *Ref[T]) load() *T   { return (*T)(atomic.LoadPointer(&r.val)) }
func (r *Ref[T]) store(p *T) { atomic.StorePointer(&r.val, unsafe.Pointer(p)) }

// Bind does nothing; see Word.Bind.
func (r *Ref[T]) Bind(*Clock) {}

// Init sets the cell's value without version bookkeeping. See Word.Init.
func (r *Ref[T]) Init(p *T) { r.val = unsafe.Pointer(p) }

// Get reads the cell. With a nil tx it performs a non-transactional
// atomic read; otherwise the read joins tx's read set and may abort tx.
// Its common read is answered inline, as Word.Get's.
func (r *Ref[T]) Get(tx *Tx) *T {
	v := r.ver.Load()
	p := r.load()
	if tx == nil {
		if v&lockBit == 0 && r.ver.Load() == v {
			return p
		}
	} else if tx.fastRead(v) {
		if r.ver.Load() != v {
			tx.abort(CauseConflict)
		}
		tx.logFast(&r.ver, v)
		return p
	}
	return r.get(tx)
}

// get is Get's slow half; see Word.get.
func (r *Ref[T]) get(tx *Tx) *T {
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
		old := acquireNonTx(&r.ver)
		nv := stamp(old, clock.tick())
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
	prev := acquireNonTx(&r.ver)
	if r.load() != old {
		r.ver.Store(prev)
		return false
	}
	nv := stamp(prev, clock.tick())
	r.store(new)
	r.ver.Store(nv)
	return true
}
