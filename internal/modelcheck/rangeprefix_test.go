package modelcheck

import (
	"slices"
	"testing"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// prefixTree is one tree under TestRangeQueryKeepsPrefix: its handles
// and its engine's counters.
type prefixTree struct {
	newHandle func() dict.Handle
	stats     func() engine.OpStats
}

func newPrefixTree(structure string, alg engine.Algorithm, hc htm.Config) prefixTree {
	if structure == "abtree" {
		t := abtree.New(abtree.Config{Algorithm: alg, HTM: hc})
		return prefixTree{t.NewHandle, t.OpStats}
	}
	t := bst.New(bst.Config{Algorithm: alg, HTM: hc})
	return prefixTree{t.NewHandle, t.OpStats}
}

// TestRangeQueryKeepsPrefix: a range query appends to the caller's
// slice, and every attempt of its walk starts over at the length the
// slice came with. So the result is the caller's prefix, untouched, then
// exactly the model's pairs, none twice — on the fast path, on the
// fallback path (AlgNonHTM), and when transactional attempts abort
// mid-walk and run again. A pinned read that meets a cell stamped past
// its snapshot returns the prefix unchanged.
func TestRangeQueryKeepsPrefix(t *testing.T) {
	prefix := []dict.KV{{Key: 1 << 40, Val: 1}, {Key: 3, Val: 3}, {Key: 1 << 40, Val: 2}}
	const keys = 300
	// spurious aborts one transactional access in 64, on a fixed seed:
	// most of the scans below reach a hundred accesses or more.
	spurious := htm.Config{Faults: fault.New(57, fault.Rule{Point: fault.PointTxAccess, Prob: 1.0 / 64})}
	cases := []struct {
		name string
		alg  engine.Algorithm
		hc   htm.Config
		// ran reports whether the counters moved over the scans show the
		// case's path at work.
		ran func(d engine.OpStats) bool
	}{
		{"fast", engine.AlgThreePath, htm.Config{}, func(d engine.OpStats) bool {
			return d.Fast > 0 && d.Fallback == 0 && d.TotalAborts(htm.PathFast) == 0
		}},
		{"fallback", engine.AlgNonHTM, htm.Config{}, func(d engine.OpStats) bool {
			return d.Fallback > 0 && d.Fast == 0
		}},
		{"aborted-attempts", engine.AlgThreePath, spurious, func(d engine.OpStats) bool {
			return d.Aborts[htm.PathFast][htm.CauseSpurious] > 0
		}},
	}
	for _, structure := range []string{"abtree", "bst"} {
		for _, c := range cases {
			t.Run(structure+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				tr := newPrefixTree(structure, c.alg, c.hc)
				h := tr.newHandle()
				model := NewModel()
				for k := uint64(2); k <= 2*keys; k += 2 {
					h.Insert(k, 10*k)
					model.Insert(k, 10*k)
				}
				before := tr.stats()
				for lo := uint64(1); lo < 2*keys; lo += 37 {
					hi := lo + 7*lo%(2*keys) + 1
					out := h.RangeQuery(lo, hi, slices.Clone(prefix))
					checkPrefixed(t, model, lo, hi, prefix, out)
				}
				d := tr.stats()
				d.Fast -= before.Fast
				d.Fallback -= before.Fallback
				for p := range d.Aborts {
					for cause := range d.Aborts[p] {
						d.Aborts[p][cause] -= before.Aborts[p][cause]
					}
				}
				if !c.ran(d) {
					t.Fatalf("counters over the scans %+v do not show the %s case at work", d, c.name)
				}
			})
		}
		t.Run(structure+"/pinned-aborted", func(t *testing.T) {
			t.Parallel()
			tr := newPrefixTree(structure, engine.AlgThreePath, htm.Config{})
			h, w := tr.newHandle(), tr.newHandle()
			for k := uint64(2); k <= 2*keys; k += 2 {
				h.Insert(k, 10*k)
			}
			pr := h.(dict.PinnedReader)
			pr.PinEnter()
			rv := htm.Pin()
			w.Insert(keys+1, 1) // commits past rv, inside the scanned window
			out, st := pr.RangeQueryAt(rv, 1, 2*keys, slices.Clone(prefix))
			pr.PinExit()
			if st != dict.PinAborted {
				t.Fatalf("pinned read over a cell stamped past rv: status %v, want aborted", st)
			}
			if !slices.Equal(out, prefix) {
				t.Fatalf("aborted pinned read returned %d pairs %v, want the prefix %v unchanged", len(out), head(out), prefix)
			}
		})
	}
}

// checkPrefixed fails t unless out is prefix followed by exactly the
// model's pairs of [lo, hi).
func checkPrefixed(t *testing.T, model *Model, lo, hi uint64, prefix, out []dict.KV) {
	t.Helper()
	if len(out) < len(prefix) || !slices.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("RangeQuery[%d,%d) lost the caller's prefix: got %v", lo, hi, head(out))
	}
	keys, vals := model.RangeQuery(lo, hi)
	got := out[len(prefix):]
	if len(got) != len(keys) {
		t.Fatalf("RangeQuery[%d,%d) appended %d pairs, model has %d (a re-run attempt kept an aborted one's pairs?): %v",
			lo, hi, len(got), len(keys), head(got))
	}
	for i, kv := range got {
		if kv.Key != keys[i] || kv.Val != vals[i] {
			t.Fatalf("RangeQuery[%d,%d) pair %d = %+v, model (%d,%d)", lo, hi, i, kv, keys[i], vals[i])
		}
	}
}

// head is the start of a result, for failure messages.
func head(kvs []dict.KV) []dict.KV { return kvs[:min(len(kvs), 8)] }
