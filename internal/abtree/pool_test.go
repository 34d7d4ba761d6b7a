package abtree

import (
	"testing"
	"unsafe"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestLeafPoolRecyclesOnFastPath drives fast-path joins (deleting down
// to underfull leaves with tiny degree bounds) and checks that removed
// nodes come back to the pool and are reused.
func TestLeafPoolRecyclesOnFastPath(t *testing.T) {
	t.Parallel()
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for round := 0; round < 20; round++ {
		for k := uint64(1); k <= 64; k++ {
			h.Insert(k, k)
		}
		for k := uint64(1); k <= 64; k++ {
			h.Delete(k)
		}
	}
	st := h.ReclaimStats()
	if st.Reused == 0 {
		t.Fatalf("pool never reused a node: %+v", st)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// leaves returns the leaves reachable in tr (quiescent use only).
func leaves(tr *Tree) map[*Node]bool {
	out := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.leaf {
			out[n] = true
			return
		}
		for i := range n.children() {
			walk(n.children()[i].Get(nil))
		}
	}
	walk(tr.entry.children()[0].Get(nil))
	return out
}

// handedOut reports whether a node of set is back in tr or would be
// handed out by h's pool, which it probes by drawing leaves until the
// pool allocates a fresh one, then returning them all.
func handedOut(tr *Tree, h *Handle, set map[*Node]bool) bool {
	for n := range leaves(tr) {
		if set[n] {
			return true
		}
	}
	h.Pool.BeginAttempt()
	defer h.Pool.BeginAttempt()
	for fresh := h.Pool.Stats().Fresh; h.Pool.Stats().Fresh == fresh; {
		if set[h.Pool.Take(true)] {
			return true
		}
	}
	return false
}

// TestRetireFastGatedByFallbackReader: a leaf removed by a fast-path
// commit waits out a grace period like every removed node. While another
// thread of the engine is inside its reclamation bracket — the engine's
// walker here, standing for any reader that may still hold the leaf, a
// fallback-path one included — none of the leaves fast-path joins remove
// is handed out again, though later joins draw leaves; once that thread
// leaves its bracket and the epoch advances, they are.
func TestRetireFastGatedByFallbackReader(t *testing.T) {
	t.Parallel()
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 256; k++ {
		h.Insert(k, k)
	}
	removed := map[*Node]bool{}
	tr.eng.Walk(func() {
		before, ops := leaves(tr), tr.OpStats()
		for k := uint64(1); k <= 32; k++ {
			h.Delete(k)
		}
		if now := tr.OpStats(); now.Middle != ops.Middle || now.Fallback != ops.Fallback {
			t.Fatalf("set-up: updates left the fast path: %+v", now.PathCounts)
		}
		after := leaves(tr)
		for n := range before {
			if !after[n] {
				removed[n] = true
			}
		}
		if len(removed) == 0 {
			t.Fatal("set-up: the deletes removed no leaf")
		}
		for k := uint64(33); k <= 96; k++ {
			h.Delete(k)
			if handedOut(tr, h, removed) {
				t.Fatalf("a removed leaf was handed out while a reader was in its bracket (%d deletes later)", k-32)
			}
		}
	})
	for k := uint64(97); ; k++ {
		if k > 250 {
			t.Fatalf("no removed leaf came back after the reader left its bracket: %+v", h.ReclaimStats())
		}
		h.Delete(k)
		if handedOut(tr, h, removed) {
			break
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestInternalArrayReuse verifies pooled internal nodes hand their
// key/child arrays back out: after churn that creates and destroys
// internal nodes, reuse draws from the pool without growing past the
// capacity-b arrays.
func TestInternalArrayReuse(t *testing.T) {
	t.Parallel()
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	for k := uint64(1); k <= 256; k++ {
		h.Insert(k, k)
	}
	warm := h.ReclaimStats()
	for round := 0; round < 10; round++ {
		for k := uint64(1); k <= 256; k += 2 {
			h.Delete(k)
		}
		for k := uint64(1); k <= 256; k += 2 {
			h.Insert(k, k)
		}
	}
	st := h.ReclaimStats()
	if st.Reused == warm.Reused {
		t.Fatal("rebalancing churn never reused pooled nodes")
	}
	growth := float64(st.Fresh-warm.Fresh) / float64(st.Reused-warm.Reused)
	if growth > 0.5 {
		t.Fatalf("pool mostly missing: %d fresh vs %d reused after warmup", st.Fresh-warm.Fresh, st.Reused-warm.Reused)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestNodeFootprint pins the memory a node costs, so a layout regression
// fails here by name instead of surfacing as the benchmark's
// live_heap_mb. A node is one allocation: a 64-byte header line — the
// flags, the degree, a leaf's version word and order word and the SCX
// header, what every visitor reads — and its kind's arrays inline
// behind it. A leaf is the header and MaxB 16-byte slots under the
// header's one version word, 320 bytes, the allocator's 320-byte size
// class (5 × 64); an internal node is the header, MaxB-1 keys and MaxB
// 16-byte child cells, 440 bytes, in the 448-byte class (7 × 64). Both
// classes' objects start at multiples of their size in page-aligned
// spans, so field offsets are cache-line offsets. The pools keep one
// list per kind, so a node drawn back from them keeps the allocation it
// was born with.
func TestNodeFootprint(t *testing.T) {
	const line = 64
	if got := unsafe.Sizeof(htm.Pair{}); got != 16 {
		t.Errorf("htm.Pair is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Node{}); got != line {
		t.Errorf("Node is %d bytes, want one %d-byte line", got, line)
	}
	var n Node
	for name, f := range map[string][2]uintptr{
		"ver": {unsafe.Offsetof(n.ver), unsafe.Sizeof(n.ver)},
		"ord": {unsafe.Offsetof(n.ord), unsafe.Sizeof(n.ord)},
		"hdr": {unsafe.Offsetof(n.hdr), unsafe.Sizeof(n.hdr)},
	} {
		if f[0]+f[1] > line {
			t.Errorf("%s spans bytes %d..%d, want it inside the header line", name, f[0], f[0]+f[1])
		}
	}
	var l leafNode
	var in internalNode
	for name, c := range map[string]struct{ got, want uintptr }{
		"a leaf":                      {unsafe.Sizeof(l), 320},
		"an internal node":            {unsafe.Sizeof(in), 440},
		"a leaf's slots' offset":      {unsafe.Offsetof(l.slotArr), line},
		"an internal node's keys'":    {unsafe.Offsetof(in.keyArr), line},
		"an internal node's children": {unsafe.Offsetof(in.childArr), line + (MaxB-1)*8},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, want %d", name, c.got, c.want)
		}
	}
	for _, leaf := range []bool{true, false} {
		if got := testing.AllocsPerRun(100, func() { nodeSink = freshNode(leaf) }); got != 1 {
			t.Errorf("a fresh node (leaf %v) costs %v allocations, want 1", leaf, got)
		}
	}

	// The accessors reach the arrays behind the header, of nodes from
	// every allocation site, and every node starts a line.
	tr := New(Config{})
	h := tr.newHandle()
	offset := func(n *Node, p unsafe.Pointer) uintptr { return uintptr(p) - uintptr(unsafe.Pointer(n)) }
	leaves := []*Node{
		tr.entry.children()[0].Get(nil), // bootstrap leaf
		h.newLeaf(nil),                  // pooled leaf
	}
	inners := []*Node{tr.entry, h.newInternal([]uint64{5}, leaves, false)}
	for _, n := range leaves {
		if got := offset(n, unsafe.Pointer(n.slots())); !n.leaf || got != line {
			t.Errorf("leaf %v: slots at byte %d, want %d", n.leaf, got, line)
		}
	}
	for _, n := range inners {
		k, c := offset(n, unsafe.Pointer(&n.keys()[:1][0])), offset(n, unsafe.Pointer(&n.children()[0]))
		if n.leaf || k != line || c != line+(MaxB-1)*8 {
			t.Errorf("internal node (leaf %v): keys at byte %d, children at %d, want %d and %d", n.leaf, k, c, line, line+(MaxB-1)*8)
		}
	}
	for _, n := range append(leaves, inners...) {
		if a := uintptr(unsafe.Pointer(n)) % line; a != 0 {
			t.Errorf("a node (leaf %v) starts at byte %d of a line, want 0", n.leaf, a)
		}
	}

	// Pooled nodes keep their kind: released internal node last, so a
	// single list would hand it to Take(true).
	p := tr.newHandle().Pool
	leaf, inner := p.Take(true), p.Take(false)
	p.Settle()
	p.Release(leaf)
	p.Release(inner)
	if got := p.Take(true); got != leaf || !got.leaf {
		t.Errorf("Take(true) returned %p (leaf %v), want the pooled leaf %p", got, got.leaf, leaf)
	}
	if got := p.Take(false); got != inner || got.leaf {
		t.Errorf("Take(false) returned %p (leaf %v), want the pooled internal node %p", got, got.leaf, inner)
	}
}

// nodeSink keeps TestNodeFootprint's fresh nodes on the heap.
var nodeSink *Node

// TestLeafReuseMovesNoVersion: a pooled leaf came back through a grace
// period, so it is out of every thread's reach and is rewritten like a
// fresh node, with no version word touched: a transaction pinned before
// the reuse reads every cell of it — ord first, as every reader of a leaf
// does — at its old snapshot. (It sees the new contents, which no
// transaction that could really exist would: the pin is only the probe
// for "was any version moved".)
func TestLeafReuseMovesNoVersion(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context
	l := h.newLeaf([]kv{{10, 100}, {20, 200}})
	h.Pool.Settle()   // published; the leaf's first life
	h.Pool.Release(l) // as ebr does once the grace period expired
	rv := tr.tm.Clock().Now()
	htm.Pin() // the clock moves on
	if tr.tm.Clock().Now() == rv {
		t.Fatal("set-up: the clock did not move")
	}
	n := h.newLeaf([]kv{{30, 300}})
	if n != l {
		t.Fatal("newLeaf did not reuse the pooled leaf")
	}
	var got kv
	var size uint64
	ok, ab := tr.tm.NewThread().AtomicAt(htm.PathFast, rv, func(tx *htm.Tx) {
		var perm uint64
		perm, size = n.ver.Get(tx, &n.ord)
		got.k, got.v = n.ver.Get(tx, &n.slots()[permAt(perm, 0)])
		if n.hdr.Marked(tx) || n.hdr.InfoValue(tx) != nil {
			t.Error("reused leaf's header is not reset")
		}
	})
	if !ok {
		t.Fatalf("reuse of a pooled leaf moved a version word: a reader pinned before it aborted with %+v", ab)
	}
	if size != 1 || got != (kv{30, 300}) {
		t.Errorf("pooled leaf holds size %d, pair %+v after reuse", size, got)
	}
}
