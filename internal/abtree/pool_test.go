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
// live_heap_mb: a leaf entry is one 24-byte cell (a Pair carries no
// clock pointer), and a node shell is two 64-byte lines — what a visitor
// reads with the leaf's order word, then the SCX header — exactly the
// allocator's 128-byte size class (whose objects start at multiples of
// 128 in page-aligned spans, so field offsets are cache-line offsets).
// A leaf of any b is that shell plus one 384-byte array of MaxB slots,
// 512 bytes in two allocations; an internal node is the shell plus a
// 120-byte key array (size class 128) and a 384-byte child array.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(htm.Pair{}); got != 24 {
		t.Errorf("htm.Pair is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Node{}); got != 128 {
		t.Errorf("Node is %d bytes, want 128 (size class 128; the next is 144, which is not line-aligned)", got)
	}
	var n Node
	const line = 64
	for name, off := range map[string]uintptr{
		"leaf": unsafe.Offsetof(n.leaf), "tagged": unsafe.Offsetof(n.tagged), "deg": unsafe.Offsetof(n.deg),
		"keyArr": unsafe.Offsetof(n.keyArr), "childArr": unsafe.Offsetof(n.childArr), "slots": unsafe.Offsetof(n.slots),
	} {
		if off >= unsafe.Offsetof(n.ord) {
			t.Errorf("%s is at byte %d, after ord at %d: a visitor's fields come first", name, off, unsafe.Offsetof(n.ord))
		}
	}
	if end := unsafe.Offsetof(n.ord) + unsafe.Sizeof(n.ord); end > line {
		t.Errorf("ord ends at byte %d, want it inside the first %d-byte line: a leaf's visitor reads it beside the leaf flag", end, line)
	}
	if lo, hi := unsafe.Offsetof(n.hdr), unsafe.Offsetof(n.hdr)+unsafe.Sizeof(n.hdr); lo != line || hi > 2*line {
		t.Errorf("hdr spans bytes %d..%d, want it alone on the second line", lo, hi)
	}
	if got := unsafe.Sizeof(*n.keyArr); got != 120 {
		t.Errorf("an internal node's key array is %d bytes, want 120 (size class 128)", got)
	}
	const leafBytes, internalBytes = 128 + 384, 128 + 128 + 384
	tr := New(Config{})
	h := tr.newHandle()
	for _, leaf := range []*Node{
		tr.entry.children()[0].Get(nil), // bootstrap leaf
		h.newLeaf(nil),                  // pooled leaf
	} {
		if leaf.keyArr != nil || leaf.childArr != nil {
			t.Fatal("leaf owns arrays beyond its slots")
		}
		if got := unsafe.Sizeof(*leaf) + unsafe.Sizeof(*leaf.slots); got != leafBytes {
			t.Errorf("a leaf is %d bytes in two allocations, want %d", got, leafBytes)
		}
	}
	in := h.newInternal([]uint64{5}, []*Node{h.newLeaf(nil), h.newLeaf(nil)}, false)
	if in.slots != nil {
		t.Fatal("internal node owns a slot array")
	}
	if got := unsafe.Sizeof(*in) + 128 + unsafe.Sizeof(*in.childArr); got != internalBytes {
		t.Errorf("an internal node is %d bytes in three allocations, want %d", got, internalBytes)
	}
}

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
	h.Insert(2, 2) // the clock moves on
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
		perm, size = n.ord.Get(tx)
		got.k, got.v = n.slots[permAt(perm, 0)].Get(tx)
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
