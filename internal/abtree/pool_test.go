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
// live_heap_mb: a leaf entry is one 32-byte cell, a node shell is 248
// bytes — the order word and the 8-byte slot array pointer take 40 where
// a size word and a slice header took 48 — inside the allocator's
// 256-byte size class (whose objects are 256-aligned, so field offsets
// are cache-line offsets), and a leaf of any b is that shell plus one
// 512-byte array of MaxB slots.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(htm.Pair{}); got != 32 {
		t.Errorf("htm.Pair is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Node{}); got != 248 {
		t.Errorf("Node is %d bytes, want 248 (size class 256; the next is 288)", got)
	}
	var n Node
	const line = 64
	if end := unsafe.Offsetof(n.slots) + unsafe.Sizeof(n.slots); end != line ||
		unsafe.Offsetof(n.leaf) >= line || unsafe.Offsetof(n.keys) >= line || unsafe.Offsetof(n.children) >= line {
		t.Errorf("flags, keys, children and slots end at byte %d, want them to fill the first %d-byte line: a descent reads one line of a node", end, line)
	}
	if lo, hi := unsafe.Offsetof(n.ord), unsafe.Offsetof(n.aggSum)+unsafe.Sizeof(n.aggSum); lo != line || hi > 2*line {
		t.Errorf("ord and aggSum span bytes %d..%d, want them inside the second line: an in-place edit dirties one line of the shell", lo, hi)
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
		if got := unsafe.Sizeof(*leaf) + unsafe.Sizeof(*leaf.slots); got != 248+512 {
			t.Errorf("a leaf is %d bytes in two allocations, want 760", got)
		}
	}
}
