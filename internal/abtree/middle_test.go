package abtree

import (
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// The middle path edits a leaf in place and stores a fresh tag in its
// info field in the same transaction (engine.Prims.EditInPlace). These
// tests check that contract against fallback-path LLX/SCX by hand, in one
// goroutine: a held presence indicator sends every update to the middle
// path, and the fallback side is called directly.

// heldIndicator is a fetch-and-increment engine.Indicator the test keeps
// a reference to, so it can arrive on the fallback-presence indicator
// from outside any operation.
type heldIndicator struct{ f htm.Word }

func (c *heldIndicator) Arrive()                 { c.f.Add(1) }
func (c *heldIndicator) Depart()                 { c.f.Add(^uint64(0)) }
func (c *heldIndicator) Nonzero(tx *htm.Tx) bool { return c.f.Get(tx) != 0 }

// TestMiddleEditRetagsLeaf: an insert into a non-full leaf, a value update
// and a delete on the middle path each edit the leaf in place and retag
// it, so an SCXO linked to the leaf's info from before the edit cannot
// freeze the leaf, and fails.
func TestMiddleEditRetagsLeaf(t *testing.T) {
	t.Parallel()
	ind := &heldIndicator{}
	tr := New(Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Indicator: ind}})
	h := tr.newHandle()
	for k := uint64(2); k <= 400; k += 2 {
		h.Insert(k, k)
	}
	const key = 201 // absent, between two present keys
	if _, _, u, _, _ := tr.searchLeaf(nil, key); leafSize(u) >= tr.cfg.B {
		t.Fatalf("set-up: the leaf of key %d is full", key)
	}
	ind.Arrive()
	defer ind.Depart()
	for _, c := range []struct {
		name string
		op   func() bool // reports whether the op did what it should
	}{
		{"insert", func() bool { _, existed := h.Insert(key, 1); return !existed }},
		{"value update", func() bool { old, existed := h.Insert(key, 2); return existed && old == 1 }},
		{"delete", func() bool { old, existed := h.Delete(key); return existed && old == 2 }},
	} {
		_, p, u, _, uIdx := tr.searchLeaf(nil, key)
		pi, pst := llxscx.LLX(nil, &p.hdr, nil)
		ui, ust := llxscx.LLX(nil, &u.hdr, nil)
		if pst != llxscx.StatusOK || ust != llxscx.StatusOK {
			t.Fatalf("%s: set-up LLXs returned %v and %v", c.name, pst, ust)
		}
		middle := tr.OpStats().Middle
		if !c.op() {
			t.Fatalf("%s: wrong result", c.name)
		}
		if got := tr.OpStats().Middle; got != middle+1 {
			t.Fatalf("%s did not complete on the middle path", c.name)
		}
		if _, _, cur, _, _ := tr.searchLeaf(nil, key); cur != u {
			t.Fatalf("%s replaced the leaf instead of editing it in place", c.name)
		}
		tag := u.hdr.InfoValue(nil)
		if tag == ui || tag.Rec != nil {
			t.Fatalf("%s did not store a fresh tag in the leaf's info field", c.name)
		}
		if llxscx.SCXO([]*llxscx.Hdr{&p.hdr, &u.hdr}, []*llxscx.Info{pi, ui},
			[]*llxscx.Hdr{&u.hdr}, &p.children()[uIdx], u, newLeaf()) {
			t.Fatalf("%s: an SCXO linked to the leaf's info from before the edit succeeded", c.name)
		}
		if u.hdr.InfoValue(nil) != tag {
			t.Fatalf("%s: the failed SCXO froze the leaf", c.name)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestMiddleSplitMarksLeaf: a middle-path insert into a full leaf splits
// it copy-on-write — the old leaf is marked and replaced — so an LLX of
// the old leaf returns StatusFinalized.
func TestMiddleSplitMarksLeaf(t *testing.T) {
	t.Parallel()
	ind := &heldIndicator{}
	tr := New(Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Indicator: ind}})
	h := tr.newHandle()
	for k := uint64(1); k <= uint64(tr.cfg.B); k++ {
		h.Insert(k, k)
	}
	u := tr.entry.children()[0].Get(nil)
	if !u.leaf || leafSize(u) != tr.cfg.B {
		t.Fatal("set-up: the root is not a full leaf")
	}
	ind.Arrive()
	defer ind.Depart()
	middle := tr.OpStats().Middle
	if _, existed := h.Insert(uint64(tr.cfg.B)+1, 0); existed {
		t.Fatal("insert of a new key reported it present")
	}
	if got := tr.OpStats().Middle; got != middle+1 {
		t.Fatal("the split did not complete on the middle path")
	}
	if tr.entry.children()[0].Get(nil) == u {
		t.Fatal("the split left the full leaf in the tree")
	}
	if _, st := llxscx.LLX(nil, &u.hdr, nil); st != llxscx.StatusFinalized {
		t.Fatalf("LLX of the split leaf returned %v, want %v", st, llxscx.StatusFinalized)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackSearchRetriesOnRetag: a middle-path delete that edits the
// fallback Search's leaf between the two info loads of its
// llxscx.LLXRead — from inside the leaf's field reads, at
// fault.PointSearchLeaf — fails the snapshot, and the search retries and
// reports the key gone.
func TestFallbackSearchRetriesOnRetag(t *testing.T) {
	t.Parallel()
	const key = 30
	ind := &heldIndicator{}
	var w *Handle
	plan := fault.New(0, fault.Rule{Point: fault.PointSearchLeaf, Count: 1, Func: func() {
		if _, existed := w.Delete(key); !existed {
			t.Error("the edit found no key to delete")
		}
	}})
	tr := New(Config{Algorithm: engine.AlgThreePath, Engine: engine.Config{Indicator: ind, Faults: plan}})
	w = tr.newHandle()
	for k := uint64(10); k <= 80; k += 10 {
		w.Insert(k, k)
	}
	ind.Arrive()
	defer ind.Depart()

	s := tr.newHandle()
	s.Key = key
	s.Th.EnterReclaim()
	first := s.SearchOp.Fallback()
	second := s.SearchOp.Fallback()
	s.Th.ExitReclaim()
	if plan.Fires(fault.PointSearchLeaf) != 1 || tr.OpStats().Middle != 1 {
		t.Fatalf("set-up: the edit ran %d times, %d on the middle path, want once on it",
			plan.Fires(fault.PointSearchLeaf), tr.OpStats().Middle)
	}
	if first {
		t.Fatal("the fallback Search accepted a leaf snapshot its leaf's retag fell inside")
	}
	if !second || s.Res.Found {
		t.Fatalf("the retried fallback Search completed %v, found %v: want completed, not found", second, s.Res.Found)
	}
}

// leafSize reads the size in a leaf's order word.
func leafSize(u *Node) int {
	_, sz := u.ver.Get(nil, &u.ord)
	return int(sz)
}
