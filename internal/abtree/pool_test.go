package abtree

import (
	"testing"
	"unsafe"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestLeafPoolRecyclesOnFastPath drives fast-path joins (deleting down
// to underfull leaves with tiny degree bounds) and checks that removed
// leaves recycle immediately and are reused.
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
	if st.RetiredFast == 0 {
		t.Fatalf("fast-path rebalancing never recycled a leaf immediately: %+v", st)
	}
	if st.Reused == 0 {
		t.Fatalf("pool never reused a node: %+v", st)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestInternalNodesNeverFastRecycle asserts the white-box rule that
// internal nodes — whose routing-key array and child-array length are
// plain memory rewritten on reuse — always take the grace period, even
// when removed by a fast-path commit.
func TestInternalNodesNeverFastRecycle(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context

	before := h.ReclaimStats()
	n := &Node{leaf: false}
	h.remove(n)
	h.settle(htm.PathFast)
	st := h.ReclaimStats()
	if st.RetiredFast != before.RetiredFast {
		t.Fatalf("internal node recycled immediately on the fast path: %+v", st)
	}
	if st.RetiredGrace != before.RetiredGrace+1 {
		t.Fatalf("internal node not grace-retired: %+v", st)
	}

	// A leaf in the same position recycles immediately.
	l := &Node{leaf: true}
	l.hdr.Bind(tr.tm.Clock())
	h.remove(l)
	h.settle(htm.PathFast)
	if got := h.ReclaimStats(); got.RetiredFast != st.RetiredFast+1 {
		t.Fatalf("leaf not recycled immediately on the fast path: %+v", got)
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
// live_heap_mb: a leaf entry is one 32-byte cell, a node shell is three
// 64-byte lines — descent fields, order word, SCX header — exactly the
// allocator's 192-byte size class (whose objects start at multiples of
// 192 in page-aligned spans, so field offsets are cache-line offsets),
// and a leaf of any b is that shell plus one 512-byte array of MaxB
// slots.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(htm.Pair{}); got != 32 {
		t.Errorf("htm.Pair is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Node{}); got != 192 {
		t.Errorf("Node is %d bytes, want 192 (size class 192; the next is 208, which is not line-aligned)", got)
	}
	var n Node
	const line = 64
	if end := unsafe.Offsetof(n.slots) + unsafe.Sizeof(n.slots); end != line ||
		unsafe.Offsetof(n.leaf) >= line || unsafe.Offsetof(n.keys) >= line || unsafe.Offsetof(n.children) >= line {
		t.Errorf("flags, keys, children and slots end at byte %d, want them to fill the first %d-byte line: a descent reads one line of a node", end, line)
	}
	if lo := unsafe.Offsetof(n.ord); lo != line {
		t.Errorf("ord starts at byte %d, want %d: an in-place edit dirties the second line of the shell and no other", lo, line)
	}
	if lo, hi := unsafe.Offsetof(n.hdr), unsafe.Offsetof(n.hdr)+unsafe.Sizeof(n.hdr); lo != 2*line || hi > 3*line {
		t.Errorf("hdr spans bytes %d..%d, want it inside the third line, away from the order word", lo, hi)
	}
	tr := New(Config{})
	h := tr.newHandle()
	for _, leaf := range []*Node{
		tr.entry.children[0].Get(nil), // bootstrap leaf
		h.newLeaf(nil),                // pooled leaf
	} {
		if leaf.keys != nil || leaf.children != nil {
			t.Fatalf("leaf owns arrays beyond its slots: %d keys, %d children",
				cap(leaf.keys), cap(leaf.children))
		}
		if got := unsafe.Sizeof(*leaf) + unsafe.Sizeof(*leaf.slots); got != 192+512 {
			t.Errorf("a leaf is %d bytes in two allocations, want 704", got)
		}
	}
}

// TestLeafReuseStoresByList: what reusing a pooled leaf costs depends on
// the list it comes from. One that skipped its grace period (removed by a
// fast-path commit) may still be held by a transaction that read it
// before, so every cell reuse rewrites must move past that reader's
// snapshot: a transaction pinned between the removal and the reuse
// aborts on the leaf. One that came back through a grace period is out of
// every thread's reach and is rewritten like a fresh node, with no
// version word touched: the same pinned transaction reads every cell of
// it — ord first, as every reader of a leaf does — at its old snapshot.
// (It sees the new contents, which no transaction that could really
// exist would: the pin is only the probe for "was any version moved".)
func TestLeafReuseStoresByList(t *testing.T) {
	t.Parallel()
	for _, immediate := range []bool{false, true} {
		tr := New(Config{Algorithm: engine.AlgThreePath})
		h := tr.newHandle()
		h.Insert(1, 1) // establish the handle's reclamation context
		l := h.newLeaf([]kv{{10, 100}, {20, 200}})
		h.settle(htm.PathFast) // published; the leaf's first life
		if immediate {
			h.remove(l)
			h.settle(htm.PathFast)
		} else {
			h.pool.Release(l) // as ebr does once the grace period expired
		}
		rv := tr.tm.ClockValue()
		h.Insert(2, 2) // the clock moves on
		if tr.tm.ClockValue() == rv {
			t.Fatal("set-up: the clock did not move")
		}
		n := h.newLeaf([]kv{{30, 300}})
		if n != l {
			t.Fatalf("immediate=%v: newLeaf did not reuse the pooled leaf", immediate)
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
		switch {
		case immediate && (ok || ab.Cause != htm.CauseConflict):
			t.Errorf("a reader pinned before the reuse of an immediately recycled leaf was not aborted (committed %v, %+v)", ok, ab)
		case !immediate && !ok:
			t.Errorf("reuse of a grace-released leaf moved a version word: a reader pinned before it aborted with %+v", ab)
		case !immediate && (size != 1 || got != kv{30, 300}):
			t.Errorf("grace-released leaf holds size %d, pair %+v after reuse", size, got)
		}
	}
}
