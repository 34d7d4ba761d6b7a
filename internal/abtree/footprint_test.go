package abtree

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestFastPathFootprint pins how many cells a fast-path operation logs,
// with the knobs the simulator already has: on a quiescent 3-path tree
// whose leaves sit under h internal nodes,
//
//   - inserting a new key into a non-full leaf writes the first free
//     slot and the order word: 2 entries, whatever h is;
//   - deleting a key writes the order word alone: 1;
//   - a search reads the entry's root pointer, one child pointer per
//     internal node, the order word and the slots its binary search
//     probes (at most 5): 2+h+probes. It does not read the fallback
//     indicator: a read-only operation runs unsubscribed (engine.Op.Middle);
//   - an insert or a delete reads what a search for its key reads, plus
//     the fallback indicator: 3+h+probes.
//
// Each commits on the fast path when WriteCapacity (ReadCapacity) is
// exactly that, and capacity-aborts off it with one entry less. A sorted
// leaf fails all five: its insert and delete also rewrite every entry
// above the key, its search reads every entry below it.
func TestFastPathFootprint(t *testing.T) {
	const keys = 4000 // even keys 2..2*keys; odd keys are new
	type probe struct {
		h           int    // internal nodes above a leaf
		present     uint64 // a key at rank 3 of its leaf
		absent      uint64 // present+1: lands mid-leaf too
		searchReads int    // slots leafFind probes on the way to present
		insertReads int    // ... and on the way to absent's rank
	}
	// probes counts the slots leafFind reads looking for key in buf.
	probes := func(buf []kv, key uint64) (n int) {
		for lo, hi := 0, len(buf); lo < hi; {
			mid := (lo + hi) / 2
			n++
			if buf[mid].k == key {
				break
			}
			if buf[mid].k < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return n
	}
	// build prefills a tree under hcfg and finds the probe keys. Tiny
	// capacities only push the prefill off the fast path.
	build := func(hcfg htm.Config) (*Tree, probe) {
		tr := New(Config{Algorithm: engine.AlgThreePath, HTM: hcfg})
		pre := tr.newHandle()
		for k := uint64(1); k <= keys; k++ {
			pre.Insert(2*k, k)
		}
		if err := tr.CheckInvariants(true); err != nil {
			t.Fatal(err)
		}
		var p probe
		for n := tr.entry.children()[0].Get(nil); !n.leaf; n = n.children()[0].Get(nil) {
			p.h++
		}
		_, _, u, _, _ := tr.searchLeaf(nil, keys)
		var buf []kv
		readLeaf(nil, u, &buf)
		if len(buf) < 8 || len(buf) >= tr.cfg.B {
			t.Fatalf("leaf of key %d holds %d entries, want 8..%d", keys, len(buf), tr.cfg.B-1)
		}
		p.present, p.absent = buf[3].k, buf[3].k+1
		p.searchReads, p.insertReads = probes(buf, p.present), probes(buf, p.absent)
		return tr, p
	}
	_, p := build(htm.Config{})
	if p.h < 2 {
		t.Fatalf("tree of %d keys has %d internal levels, want >= 2", keys, p.h)
	}
	if p.searchReads > 5 || p.insertReads > 5 {
		t.Fatalf("search probes %d slots, insert %d, want <= 5", p.searchReads, p.insertReads)
	}
	insertOp := func(h *Handle, p probe) bool { _, existed := h.Insert(p.absent, 1); return !existed }
	deleteOp := func(h *Handle, p probe) bool { _, existed := h.Delete(p.present); return existed }
	writeCap := func(n int) htm.Config {
		if n == 0 {
			n = -1 // 0 selects the default; a negative budget admits no entry
		}
		return htm.Config{WriteCapacity: n}
	}
	readCap := func(n int) htm.Config { return htm.Config{ReadCapacity: n} }

	for _, c := range []struct {
		name  string
		needs int
		cfg   func(capacity int) htm.Config
		op    func(h *Handle, p probe) bool // reports whether the op did what it should
	}{
		{"insert writes", 2, writeCap, insertOp},
		{"delete writes", 1, writeCap, deleteOp},
		{"insert reads", 3 + p.h + p.insertReads, readCap, insertOp},
		{"delete reads", 3 + p.h + p.searchReads, readCap, deleteOp},
		{"search reads", 2 + p.h + p.searchReads, readCap,
			func(h *Handle, p probe) bool { v, found := h.Search(p.present); return found && 2*v == p.present }},
	} {
		for _, fits := range []bool{true, false} {
			capacity := c.needs
			if !fits {
				capacity--
			}
			tr, q := build(c.cfg(capacity))
			if q != p {
				t.Fatalf("%s: prefill under capacity %d built a different tree: %+v, want %+v", c.name, capacity, q, p)
			}
			h := tr.newHandle() // fresh site: no capacity history, so the fast path is tried
			before := tr.OpStats()
			if !c.op(h, q) {
				t.Fatalf("%s at capacity %d: wrong result", c.name, capacity)
			}
			after := tr.OpStats()
			onFast := after.Fast - before.Fast
			capAborts := after.Aborts[htm.PathFast][htm.CauseCapacity] - before.Aborts[htm.PathFast][htm.CauseCapacity]
			if fits && (onFast != 1 || capAborts != 0) {
				t.Errorf("%s (h=%d) at capacity %d: fast completions %d, fast-path capacity aborts %d, want 1 and 0",
					c.name, p.h, capacity, onFast, capAborts)
			}
			if !fits && (onFast != 0 || capAborts == 0) {
				t.Errorf("%s (h=%d) at capacity %d: fast completions %d, fast-path capacity aborts %d, want 0 and > 0: the footprint shrank, update the count",
					c.name, p.h, capacity, onFast, capAborts)
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("%s at capacity %d: %v", c.name, capacity, err)
			}
		}
	}
}

// TestMiddlePathFootprint is TestFastPathFootprint's count for the middle
// path, on the same quiescent tree with an operation held on the fallback
// indicator, so that every update skips the fast path. The middle path
// runs the fast path's in-place edit of the leaf plus EditInPlace: a
// linked LLX of the leaf (its marked bit, info, marked bit and info again:
// 4 reads) and one fresh tag in its info field (1 write). It does not read
// the indicator. So
//
//   - an insert into a non-full leaf writes 3 entries and reads
//     6+h+probes, and draws no node from the pool;
//   - a delete writes 2 entries and reads 6+h+probes.
//
// Each commits on the middle path at exactly that capacity and
// capacity-aborts off it with one entry less.
func TestMiddlePathFootprint(t *testing.T) {
	const keys = 4000 // even keys 2..2*keys; odd keys are new
	// build prefills a tree under hcfg on the fast path, then holds the
	// fallback indicator. It returns the tree, the leaf height h, a key at
	// rank 3 of its leaf, and the slots leafFind probes for that key
	// and for the absent key after it.
	build := func(hcfg htm.Config) (tr *Tree, h int, present uint64, searchReads, insertReads int) {
		ind := &heldIndicator{}
		tr = New(Config{Algorithm: engine.AlgThreePath, HTM: hcfg, Engine: engine.Config{Indicator: ind}})
		pre := tr.newHandle()
		for k := uint64(1); k <= keys; k++ {
			pre.Insert(2*k, k)
		}
		for n := tr.entry.children()[0].Get(nil); !n.leaf; n = n.children()[0].Get(nil) {
			h++
		}
		_, _, u, _, _ := tr.searchLeaf(nil, keys)
		var buf []kv
		readLeaf(nil, u, &buf)
		if len(buf) < 8 || len(buf) >= tr.cfg.B {
			t.Fatalf("leaf of key %d holds %d entries, want 8..%d", keys, len(buf), tr.cfg.B-1)
		}
		present = buf[3].k
		searchReads, insertReads = leafProbes(buf, present), leafProbes(buf, present+1)
		ind.Arrive()
		return tr, h, present, searchReads, insertReads
	}
	_, h, key, searchReads, insertReads := build(htm.Config{})
	if h < 2 {
		t.Fatalf("tree of %d keys has %d internal levels, want >= 2", keys, h)
	}
	insertOp := func(hd *Handle, present uint64) bool { _, existed := hd.Insert(present+1, 1); return !existed }
	deleteOp := func(hd *Handle, present uint64) bool { _, existed := hd.Delete(present); return existed }
	writeCap := func(n int) htm.Config { return htm.Config{WriteCapacity: n} }
	readCap := func(n int) htm.Config { return htm.Config{ReadCapacity: n} }

	for _, c := range []struct {
		name  string
		needs int
		cfg   func(capacity int) htm.Config
		op    func(hd *Handle, present uint64) bool
	}{
		{"insert writes", 3, writeCap, insertOp},
		{"delete writes", 2, writeCap, deleteOp},
		{"insert reads", 6 + h + insertReads, readCap, insertOp},
		{"delete reads", 6 + h + searchReads, readCap, deleteOp},
	} {
		for _, fits := range []bool{true, false} {
			capacity := c.needs
			if !fits {
				capacity--
			}
			tr, h2, present, s2, i2 := build(c.cfg(capacity))
			if h2 != h || present != key || s2 != searchReads || i2 != insertReads {
				t.Fatalf("%s: prefill under capacity %d built a different tree", c.name, capacity)
			}
			hd := tr.newHandle()
			before, pool := tr.OpStats(), hd.ReclaimStats()
			if !c.op(hd, present) {
				t.Fatalf("%s at capacity %d: wrong result", c.name, capacity)
			}
			after := tr.OpStats()
			onMiddle := after.Middle - before.Middle
			capAborts := after.Aborts[htm.PathMiddle][htm.CauseCapacity] - before.Aborts[htm.PathMiddle][htm.CauseCapacity]
			if fits && (onMiddle != 1 || capAborts != 0) {
				t.Errorf("%s (h=%d) at capacity %d: middle completions %d, middle-path capacity aborts %d, want 1 and 0",
					c.name, h, capacity, onMiddle, capAborts)
			}
			if !fits && (onMiddle != 0 || capAborts == 0) {
				t.Errorf("%s (h=%d) at capacity %d: middle completions %d, middle-path capacity aborts %d, want 0 and > 0: the footprint shrank, update the count",
					c.name, h, capacity, onMiddle, capAborts)
			}
			if got := hd.ReclaimStats(); fits && (got.Fresh != pool.Fresh || got.Reused != pool.Reused) {
				t.Errorf("%s on the middle path drew %d fresh and %d pooled nodes, want none: the leaf is edited in place",
					c.name, got.Fresh-pool.Fresh, got.Reused-pool.Reused)
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("%s at capacity %d: %v", c.name, capacity, err)
			}
		}
	}
}

// leafProbes counts the slots leafFind reads looking for key in a leaf
// holding the sorted pairs buf.
func leafProbes(buf []kv, key uint64) (n int) {
	for lo, hi := 0, len(buf); lo < hi; {
		mid := (lo + hi) / 2
		n++
		if buf[mid].k == key {
			break
		}
		if buf[mid].k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return n
}
