package htmtree_test

import (
	"slices"
	"testing"

	"htmtree"
	"htmtree/internal/citrus"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
	"htmtree/internal/hybridnorec"
	"htmtree/internal/kcas"
)

// pointHandle is what the key-bound contract exercises of a handle: the
// facade's and every internal dictionary's.
type pointHandle interface {
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	Search(key uint64) (uint64, bool)
	RangeQuery(lo, hi uint64, out []dict.KV) []dict.KV
}

// TestKeyBounds is the key-bound contract of every dictionary: MaxKey is
// a key like any other, a larger key panics on every point operation
// (and so does 0 on the k-CAS list, whose head sentinel holds it), and a
// tree's range query over the whole uint64 space returns exactly the
// keys inserted, never one of the sentinels above MaxKey the BST frames
// itself with.
func TestKeyBounds(t *testing.T) {
	t.Parallel()
	facade := func(new func(htmtree.Config) (*htmtree.Tree, error), shards int) func(*testing.T) pointHandle {
		return func(t *testing.T) pointHandle {
			tree, err := new(htmtree.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			return tree.NewHandle()
		}
	}
	internal := func(d dict.Dict) func(*testing.T) pointHandle {
		return func(*testing.T) pointHandle { return d.NewHandle() }
	}
	for _, c := range []struct {
		name    string
		handle  func(*testing.T) pointHandle
		tree    bool // RangeQuery(0, ^uint64(0)) is checked
		zeroBad bool // key 0 is reserved
	}{
		{"bst", facade(htmtree.NewBST, 0), true, false},
		{"abtree", facade(htmtree.NewABTree, 0), true, false},
		{"bst/x4", facade(htmtree.NewShardedBST, 4), true, false},
		{"abtree/x4", facade(htmtree.NewShardedABTree, 4), true, false},
		{"citrus", internal(citrus.New(citrus.Config{Algorithm: engine.AlgThreePath})), false, false},
		{"kcas-list", internal(kcas.NewList(kcas.ListConfig{Algorithm: engine.AlgThreePath})), false, true},
		{"hybrid-norec", internal(hybridnorec.NewBST(htm.Config{}, 0)), false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			h := c.handle(t)
			const v = 42
			if old, ok := h.Insert(dict.MaxKey, v); ok {
				t.Fatalf("Insert(MaxKey) into an empty dictionary = (%d, true)", old)
			}
			if got, ok := h.Search(dict.MaxKey); !ok || got != v {
				t.Errorf("Search(MaxKey) = (%d, %v), want (%d, true)", got, ok, v)
			}
			if got := h.RangeQuery(dict.MaxKey, dict.MaxKey+1, nil); !slices.Equal(got, []dict.KV{{Key: dict.MaxKey, Val: v}}) {
				t.Errorf("RangeQuery(MaxKey, MaxKey+1) = %v, want [{MaxKey %d}]", got, v)
			}
			if got, ok := h.Delete(dict.MaxKey); !ok || got != v {
				t.Errorf("Delete(MaxKey) = (%d, %v), want (%d, true)", got, ok, v)
			}
			if _, ok := h.Search(dict.MaxKey); ok {
				t.Error("Search(MaxKey) found the key after its Delete")
			}

			bad := []uint64{dict.MaxKey + 1}
			if c.zeroBad {
				bad = append(bad, 0)
			}
			for _, k := range bad {
				for _, op := range []struct {
					name string
					run  func()
				}{
					{"Insert", func() { h.Insert(k, 1) }},
					{"Delete", func() { h.Delete(k) }},
					{"Search", func() { h.Search(k) }},
				} {
					if !panics(op.run) {
						t.Errorf("%s(%d) did not panic", op.name, k)
					}
				}
			}

			if !c.tree {
				return
			}
			keys := []uint64{0, 1, 7, 1 << 40, dict.MaxKey - 1, dict.MaxKey}
			var want []dict.KV
			for _, k := range keys {
				h.Insert(k, k+1)
				want = append(want, dict.KV{Key: k, Val: k + 1})
			}
			if got := h.RangeQuery(0, ^uint64(0), nil); !slices.Equal(got, want) {
				t.Errorf("RangeQuery(0, ^uint64(0)) = %v, want %v", got, want)
			}
		})
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
