// Package kcas implements a lock-free multi-word compare-and-swap
// (k-CAS) from single-word CAS in the style of Harris, Fraser and Pratt
// (DISC 2002), an HTM-accelerated variant, and the 3-path sorted linked
// list of Section 10.2 of Brown's paper built on top of them.
//
// A Cell[T] holds an immutable *T value behind an entry that may
// temporarily carry a k-CAS descriptor. Because the pre-operation value
// remains visible in the entry while a descriptor is installed, plain
// traversals read through in-flight operations naturally; only the
// update phase must reason about descriptors. Values are compared by
// pointer identity, so the freshness discipline (every state change
// installs a newly allocated value) rules the ABA problem out, exactly
// like property P1 of the LLX/SCX template.
//
// Callers performing multi-cell operations must present cells in a
// consistent global order (for the list: list order) so that recursive
// helping cannot cycle.
package kcas

import (
	"sync/atomic"

	"htmtree/internal/htm"
)

// MaxK is the largest number of cells one k-CAS may touch.
const MaxK = 4

// Status of a descriptor.
const (
	statusUndecided int32 = iota + 1
	statusSucceeded
	statusFailed
)

// entry is the content of a Cell: the (immutable) current value, plus
// the descriptor of an in-flight k-CAS when one is installed. idx is the
// cell's position within the descriptor.
type entry[T any] struct {
	v   *T
	d   *desc[T]
	idx int
}

// Cell is a shared word supporting k-CAS. The zero value holds nil.
type Cell[T any] struct {
	e htm.Ref[entry[T]]
}

// desc describes one k-CAS operation.
type desc[T any] struct {
	status atomic.Int32
	n      int
	cells  [MaxK]*Cell[T]
	exp    [MaxK]*T
	new    [MaxK]*T
}

// Init sets the cell's initial value without synchronization (the cell
// must not be shared yet).
func (c *Cell[T]) Init(v *T) {
	c.e.Init(&entry[T]{v: v})
}

// Read returns the cell's current value, helping any in-flight k-CAS it
// encounters. tx must be nil (descriptor helping belongs to the software
// path; transactional code uses ReadTx).
func (c *Cell[T]) Read() *T {
	for {
		e := c.e.Get(nil)
		if e == nil {
			return nil
		}
		if e.d == nil {
			return e.v
		}
		switch e.d.status.Load() {
		case statusUndecided:
			help(e.d)
		case statusSucceeded:
			return e.d.new[e.idx]
		default: // failed
			return e.v
		}
	}
}

// ReadNoHelp returns the value without helping: in-flight descriptors
// are read through to the pre-operation value. This is what plain
// traversals use — it never blocks and never writes.
func (c *Cell[T]) ReadNoHelp() *T {
	e := c.e.Get(nil)
	if e == nil {
		return nil
	}
	if e.d != nil && e.d.status.Load() == statusSucceeded {
		return e.d.new[e.idx]
	}
	return e.v
}

// ReadTx reads the cell inside a transaction. If a descriptor is
// installed the transaction cannot proceed (helping inside a transaction
// is harmful; Section 4 of the paper): it aborts with code abortDesc.
// With checkDesc false (the fast path of Section 10.2, which cannot run
// concurrently with the fallback path) the descriptor check is skipped.
func (c *Cell[T]) ReadTx(tx *htm.Tx, checkDesc bool) *T {
	e := c.e.Get(tx)
	if e == nil {
		return nil
	}
	if checkDesc && e.d != nil {
		tx.Abort(AbortDesc)
	}
	return e.v
}

// WriteTx replaces the cell's value inside a transaction, verifying the
// expected current value (pointer identity). With a nil tx (TLE's locked
// body) the write is a plain store.
func (c *Cell[T]) WriteTx(tx *htm.Tx, checkDesc bool, exp, v *T) {
	e := c.e.Get(tx)
	var cur *T
	if e != nil {
		if checkDesc && e.d != nil {
			tx.Abort(AbortDesc)
		}
		cur = e.v
	}
	if cur != exp {
		abortStale(tx)
	}
	c.e.Set(tx, &entry[T]{v: v})
}

// abortStale aborts tx on a state that changed since the caller's
// traversal read it. With a nil tx the caller is TLE's locked body, run
// under the engine's global lock, where nothing else writes the list:
// nothing it read can be marked or stale, so getting here is a bug, not
// a retry.
func abortStale(tx *htm.Tx) {
	if tx == nil {
		panic("kcas: stale state under the TLE lock")
	}
	tx.Abort(AbortStale)
}

// Abort codes used by the transactional accessors.
const (
	// AbortDesc: a software k-CAS descriptor was encountered in a
	// transaction.
	AbortDesc uint8 = 0xC1
	// AbortStale: an expected value no longer matched.
	AbortStale uint8 = 0xC2
)

// Apply atomically replaces exp[i] with new[i] in cells[i] for all i, or
// does nothing, and reports which. Values compare by pointer identity.
// len(cells) must be in [1, MaxK]; cells must follow the caller's global
// cell order.
func Apply[T any](cells []*Cell[T], exp, new []*T) bool {
	if len(cells) == 0 || len(cells) > MaxK || len(exp) != len(cells) || len(new) != len(cells) {
		panic("kcas: bad Apply arguments")
	}
	d := &desc[T]{n: len(cells)}
	d.status.Store(statusUndecided)
	copy(d.cells[:], cells)
	copy(d.exp[:], exp)
	copy(d.new[:], new)
	return help(d)
}

// help drives d to completion on behalf of any thread.
func help[T any](d *desc[T]) bool {
	// Phase 1: install d into every cell, in order.
install:
	for i := 0; i < d.n && d.status.Load() == statusUndecided; i++ {
		c := d.cells[i]
		for {
			e := c.e.Get(nil)
			if e != nil && e.d == d {
				break // already installed (by a helper)
			}
			if e != nil && e.d != nil {
				if e.d.status.Load() == statusUndecided {
					help(e.d)
				} else {
					cleanup(e.d)
				}
				continue
			}
			var cur *T
			if e != nil {
				cur = e.v
			}
			if cur != d.exp[i] {
				d.status.CompareAndSwap(statusUndecided, statusFailed)
				break install
			}
			if c.e.CAS(nil, e, &entry[T]{v: cur, d: d, idx: i}) {
				break
			}
		}
	}
	// Phase 2: decide.
	d.status.CompareAndSwap(statusUndecided, statusSucceeded)
	// Phase 3: detach the descriptor, publishing the outcome.
	cleanup(d)
	return d.status.Load() == statusSucceeded
}

// cleanup replaces every installed marker entry with a plain entry
// holding the decided value.
func cleanup[T any](d *desc[T]) {
	succeeded := d.status.Load() == statusSucceeded
	for i := 0; i < d.n; i++ {
		c := d.cells[i]
		e := c.e.Get(nil)
		if e == nil || e.d != d {
			continue
		}
		v := e.v
		if succeeded {
			v = d.new[i]
		}
		c.e.CAS(nil, e, &entry[T]{v: v})
	}
}
