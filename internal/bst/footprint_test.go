package bst

import (
	"testing"
	"unsafe"

	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// TestTransactionalFootprint pins how many cells each transactional body
// logs, with the capacity knobs the simulator already has. On a quiescent
// tree whose probe key sits under n internal nodes (the root sentinel
// included), next to a leaf sibling:
//
//   - the fast body (3-path's first path) reads one child pointer per
//     internal node and — an update, which subscribes to it; a search
//     runs unsubscribed (engine.Op.Middle) — the fallback indicator; a
//     search or a value-update insert also reads the leaf's value, a
//     delete the value and the sibling pointer. It writes one cell (the
//     child pointer, or the value in place), a delete three (grandparent's
//     child pointer, two marks). Keys are plain fields: no key read
//     joins the read set.
//   - the template body in a transaction (2-path-con's first path) reads
//     no indicator; each LLX logs the mark twice and the info twice (4
//     reads), plus the two child pointers of an internal node (6). An
//     insert LLXes the parent and the leaf, a delete the grandparent, the
//     parent, the leaf and the sibling, and copies the sibling's value. It
//     writes a tagged info per LLXed node, a mark per removed node and the
//     child pointer.
//
// Each op commits on its first path when ReadCapacity (WriteCapacity) is
// exactly that count and capacity-aborts off it with one entry less.
func TestTransactionalFootprint(t *testing.T) {
	const present, absent = 64, 65 // absent lands beside present's leaf
	// build prefills a tree under hcfg. The insertion order fixes the
	// shape; tiny capacities only push the prefill off the first path.
	build := func(alg engine.Algorithm, hcfg htm.Config) *Tree {
		tr := New(Config{Algorithm: alg, HTM: hcfg})
		pre := tr.newHandle()
		for i := uint64(0); i < 64; i++ {
			pre.Insert(2*(i*37%64+1), i)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// shape returns n and checks the probe keys' neighbourhood.
	shape := func(tr *Tree) int {
		n := 0
		for x := tr.root; !x.leaf; x = childRef(x, present).Get(nil) {
			n++
		}
		gp, p, l := tr.search(nil, present)
		_, p2, l2 := tr.search(nil, absent)
		if gp == nil || l.Key() != present || p2 != p || l2 != l {
			t.Fatalf("probe keys %d/%d do not share a leaf below the root", present, absent)
		}
		if s := p.l.Get(nil); !s.leaf || p.r.Get(nil) != l {
			t.Fatalf("key %d's sibling is not a leaf on its left", present)
		}
		return n
	}
	n := shape(build(engine.AlgThreePath, htm.Config{}))
	if n < 3 {
		t.Fatalf("probe key sits under %d internal nodes, want >= 3", n)
	}

	insertNew := func(h *Handle) bool { _, existed := h.Insert(absent, 1); return !existed }
	insertExisting := func(h *Handle) bool { _, existed := h.Insert(present, 1); return existed }
	del := func(h *Handle) bool { _, existed := h.Delete(present); return existed }
	search := func(h *Handle) bool { _, found := h.Search(present); return found }
	const llxLeaf, llxInternal = 4, 6
	for _, c := range []struct {
		alg           engine.Algorithm
		name          string
		reads, writes int
		op            func(h *Handle) bool // reports whether the op did what it should
	}{
		{engine.AlgThreePath, "insert-new", 1 + n, 1, insertNew},
		{engine.AlgThreePath, "insert-existing", 1 + n + 1, 1, insertExisting},
		{engine.AlgThreePath, "delete", 1 + n + 2, 3, del},
		{engine.AlgThreePath, "search", n + 1, 0, search},
		{engine.AlgTwoPathConc, "insert-new", n + llxInternal + llxLeaf, 2 + 1, insertNew},
		{engine.AlgTwoPathConc, "delete", n + 2*llxInternal + 2*llxLeaf + 2, 4 + 3 + 1, del},
	} {
		for _, write := range []bool{false, true} {
			for _, fits := range []bool{true, false} {
				capacity, hcfg := c.reads, htm.Config{}
				if write {
					capacity = c.writes
				}
				if !fits {
					capacity--
				}
				if capacity <= 0 {
					continue // 0 selects the default capacity
				}
				if write {
					hcfg.WriteCapacity = capacity
				} else {
					hcfg.ReadCapacity = capacity
				}
				tr := build(c.alg, hcfg)
				if m := shape(tr); m != n {
					t.Fatalf("prefill under %+v built a different tree: n = %d, want %d", hcfg, m, n)
				}
				h := tr.newHandle() // fresh site: no capacity history, so the first path is tried
				before := tr.OpStats()
				if !c.op(h) {
					t.Fatalf("%v %s under %+v: wrong result", c.alg, c.name, hcfg)
				}
				after := tr.OpStats()
				onFirst := after.Fast - before.Fast
				capAborts := after.Aborts[htm.PathFast][htm.CauseCapacity] - before.Aborts[htm.PathFast][htm.CauseCapacity]
				if fits && (onFirst != 1 || capAborts != 0) {
					t.Errorf("%v %s (n=%d) under %+v: first-path completions %d, capacity aborts %d, want 1 and 0",
						c.alg, c.name, n, hcfg, onFirst, capAborts)
				}
				if !fits && (onFirst != 0 || capAborts == 0) {
					t.Errorf("%v %s (n=%d) under %+v: first-path completions %d, capacity aborts %d, want 0 and > 0: the footprint shrank, update the count",
						c.alg, c.name, n, hcfg, onFirst, capAborts)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%v %s under %+v: %v", c.alg, c.name, hcfg, err)
				}
			}
		}
	}
}

// TestNodeFootprint pins the memory a node costs: the header's two
// cells, the key and leaf flag as plain fields (a pooled node's key is
// rewritten only after its grace period), the value cell and the two
// child cells, each cell 16 bytes — 96 bytes, the allocator's 96-byte
// size class.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 96 {
		t.Errorf("Node is %d bytes, want 96", got)
	}
}
