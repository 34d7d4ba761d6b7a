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

// TestRetireFastGatedByFallbackReader drives Section 9's gate through
// the fallback indicator F: while an operation is (simulated) live on
// the fallback path, removals must not recycle immediately. F pushes the
// deletes and the joins they trigger off the fast path, so the leaves a
// join removes take the grace period, and none can be handed out under
// the reader. Unobstructed, the same joins recycle at once.
func TestRetireFastGatedByFallbackReader(t *testing.T) {
	t.Parallel()
	ind := &heldIndicator{}
	tr := New(Config{A: 2, B: 4, Algorithm: engine.AlgThreePath, Engine: engine.Config{Indicator: ind}})
	h := tr.newHandle()
	for k := uint64(1); k <= 128; k++ {
		h.Insert(k, k)
	}
	deleteRange := func(lo, hi uint64) {
		for k := lo; k <= hi; k++ {
			if _, ok := h.Delete(k); !ok {
				t.Fatalf("delete of present key %d missed", k)
			}
		}
	}

	before := h.ReclaimStats()
	deleteRange(1, 32)
	mid := h.ReclaimStats()
	if mid.RetiredFast == before.RetiredFast {
		t.Fatalf("unobstructed fast-path joins did not recycle immediately: %+v", mid)
	}

	// A live fallback-path operation (simulated by arriving on the
	// engine's presence indicator, as the fallback loop does).
	ind.Arrive()
	ops := tr.OpStats()
	deleteRange(33, 64)
	st := h.ReclaimStats()
	if st.RetiredFast != mid.RetiredFast {
		t.Fatalf("RetireFast happened while a fallback-path reader was live: %+v", st)
	}
	if st.RetiredGrace == mid.RetiredGrace {
		t.Fatal("joins under a live fallback reader retired nothing")
	}
	if now := tr.OpStats(); now.Fast != ops.Fast || now.Middle == ops.Middle {
		t.Fatalf("held F did not push the updates to the middle path: fast %d -> %d, middle %d -> %d",
			ops.Fast, now.Fast, ops.Middle, now.Middle)
	}
	ind.Depart()
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestInternalNodesNeverFastRecycle asserts the white-box rule that
// internal nodes — whose degree and routing-key array are
// plain memory rewritten on reuse — always take the grace period, even
// when removed by a fast-path commit.
func TestInternalNodesNeverFastRecycle(t *testing.T) {
	t.Parallel()
	tr := New(Config{Algorithm: engine.AlgThreePath})
	h := tr.newHandle()
	h.Insert(1, 1) // establish the handle's reclamation context

	before := h.ReclaimStats()
	n := &Node{leaf: false}
	h.Pool.Remove(n)
	h.Pool.Settle(htm.PathFast)
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
	h.Pool.Remove(l)
	h.Pool.Settle(htm.PathFast)
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
		h.Pool.Settle(htm.PathFast) // published; the leaf's first life
		if immediate {
			h.Pool.Remove(l)
			h.Pool.Settle(htm.PathFast)
		} else {
			h.Pool.Release(l) // as ebr does once the grace period expired
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
