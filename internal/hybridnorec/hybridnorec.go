// Package hybridnorec implements the Hybrid NOrec transactional memory
// (Dalessandro et al., ASPLOS 2011) that Section 7.3 of Brown's paper
// compares against, together with the unbalanced BST built on it for
// Figure 17.
//
// Hybrid NOrec combines a NOrec software path — a single global
// sequence lock, value-based read validation, buffered writes — with a
// hardware fast path. To let software transactions detect hardware
// commits, every *updating* hardware transaction increments the global
// sequence counter at commit. That counter is the contention hotspot the
// paper highlights: beyond a handful of threads every updating hardware
// transaction conflicts with every other on the counter word, producing
// the negative scaling visible in Figure 17 even though the transactions
// touch disjoint tree data.
package hybridnorec

import (
	"runtime"

	"htmtree/internal/htm"
)

// DefaultAttempts is the hardware attempt budget before an operation
// moves to the software path.
const DefaultAttempts = 20

// abort code for "software writer holds the sequence lock".
const codeSeqLockHeld uint8 = 0xB1

// TM is a Hybrid NOrec transactional memory instance.
type TM struct {
	inner    *htm.TM
	gclk     htm.Word // NOrec global sequence lock: odd = software commit in flight
	attempts int
}

// New creates a Hybrid NOrec TM over the given simulated-HTM
// configuration.
func New(cfg htm.Config, attempts int) *TM {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	return &TM{inner: htm.New(cfg), attempts: attempts}
}

// Thread is a per-goroutine Hybrid NOrec context.
type Thread struct {
	tm *TM
	h  *htm.Thread
	sw swTx
}

// NewThread registers a new thread.
func (tm *TM) NewThread() *Thread {
	return &Thread{tm: tm, h: tm.inner.NewThread()}
}

// Tx is a transaction handle: exactly one of hw/sw is active.
type Tx struct {
	hw    *htm.Tx
	sw    *swTx
	wrote bool
}

// Read reads a word cell transactionally.
func (tx *Tx) Read(c *htm.Word) uint64 {
	if tx.hw != nil {
		return c.Get(tx.hw)
	}
	return tx.sw.readWord(c)
}

// Write writes a word cell transactionally.
func (tx *Tx) Write(c *htm.Word, v uint64) {
	tx.wrote = true
	if tx.hw != nil {
		c.Set(tx.hw, v)
		return
	}
	tx.sw.writeWord(c, v)
}

// ReadRef reads a pointer cell transactionally.
func ReadRef[T any](tx *Tx, c *htm.Ref[T]) *T {
	if tx.hw != nil {
		return c.Get(tx.hw)
	}
	return readRefSW(tx.sw, c)
}

// WriteRef writes a pointer cell transactionally.
func WriteRef[T any](tx *Tx, c *htm.Ref[T], p *T) {
	tx.wrote = true
	if tx.hw != nil {
		c.Set(tx.hw, p)
		return
	}
	tx.sw.apply = append(tx.sw.apply, func() { c.Set(nil, p) })
}

// Atomic runs fn as a Hybrid NOrec transaction: up to the attempt budget
// on the hardware path, then on the NOrec software path (which always
// commits). fn may be re-executed and must be side-effect free outside
// transactional reads/writes.
//
// The caller must not retain tx. Read-own-write within one transaction
// is supported on the hardware path only; the data structures in this
// package do not require it.
func (th *Thread) Atomic(fn func(tx *Tx)) (hwCommitted bool) {
	for i := 0; i < th.tm.attempts; i++ {
		tx := Tx{}
		ok, _ := th.h.Atomic(htm.PathFast, func(hw *htm.Tx) {
			tx.hw = hw
			// Subscribe to the sequence lock: a software commit in
			// flight forces an abort.
			if th.tm.gclk.Get(hw)%2 == 1 {
				hw.Abort(codeSeqLockHeld)
			}
			fn(&tx)
			if tx.wrote {
				// Signal software transactions — the Figure 17 hotspot.
				th.tm.gclk.Set(hw, th.tm.gclk.Get(hw)+2)
			}
		})
		if ok {
			return true
		}
	}
	// Software path: NOrec.
	sw := &th.sw
	for {
		if th.runSoftware(fn, sw) {
			return false
		}
	}
}

// runSoftware executes one software attempt, translating mid-run
// validation failures (swAbort panics) into a retry.
func (th *Thread) runSoftware(fn func(tx *Tx), sw *swTx) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(swAbort); !ok {
				panic(r)
			}
			done = false
		}
	}()
	sw.reset(th.tm)
	tx := Tx{sw: sw}
	fn(&tx)
	if !tx.wrote {
		// Reads were kept consistent incrementally; nothing to publish.
		return true
	}
	return sw.commit()
}

// swAbort is the panic payload that unwinds a software transaction whose
// snapshot became inconsistent mid-run (the NOrec restart).
type swAbort struct{}

// swTx is the NOrec software transaction: value-based validation against
// a global sequence lock.
type swTx struct {
	tm    *TM
	snap  uint64
	valid []func() bool
	apply []func()
}

func (sw *swTx) reset(tm *TM) {
	sw.tm = tm
	sw.valid = sw.valid[:0]
	sw.apply = sw.apply[:0]
	sw.snap = sw.waitEven()
}

// waitEven spins until the sequence lock is even and returns it.
func (sw *swTx) waitEven() uint64 {
	for i := 0; ; i++ {
		v := sw.tm.gclk.Get(nil)
		if v%2 == 0 {
			return v
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// postRead revalidates after each read if the global clock moved — the
// NOrec discipline that gives opacity with a single global word. An
// inconsistent snapshot aborts (and restarts) the transaction.
func (sw *swTx) postRead() {
	for {
		cur := sw.tm.gclk.Get(nil)
		if cur == sw.snap {
			return
		}
		snap := sw.waitEven()
		if !sw.revalidate() {
			panic(swAbort{})
		}
		sw.snap = snap
	}
}

func (sw *swTx) revalidate() bool {
	for _, v := range sw.valid {
		if !v() {
			return false
		}
	}
	return true
}

func (sw *swTx) readWord(c *htm.Word) uint64 {
	v := c.Get(nil)
	sw.valid = append(sw.valid, func() bool { return c.Get(nil) == v })
	sw.postRead()
	return v
}

func readRefSW[T any](sw *swTx, c *htm.Ref[T]) *T {
	p := c.Get(nil)
	sw.valid = append(sw.valid, func() bool { return c.Get(nil) == p })
	sw.postRead()
	return p
}

func (sw *swTx) writeWord(c *htm.Word, v uint64) {
	sw.apply = append(sw.apply, func() { c.Set(nil, v) })
}

// commit acquires the sequence lock, validates the read set, applies
// the write set and releases. It returns false when validation failed
// and the transaction must re-execute.
func (sw *swTx) commit() bool {
	for {
		snap := sw.snap
		if !sw.tm.gclk.CAS(nil, snap, snap+1) {
			cur := sw.waitEven()
			if !sw.revalidate() {
				return false
			}
			sw.snap = cur
			continue
		}
		if !sw.revalidate() {
			sw.tm.gclk.Set(nil, snap) // release without publishing
			return false
		}
		for _, a := range sw.apply {
			a()
		}
		sw.tm.gclk.Set(nil, snap+2)
		return true
	}
}
