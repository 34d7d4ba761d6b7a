package modelcheck

import (
	"testing"

	"htmtree"
)

// FuzzOps feeds fuzzer-chosen operation streams through every template
// configuration at once — BST and a-b-tree, the plain 3-path, the
// helpable TLE fallback (spurious aborts force the announce protocol
// even single-threaded) and 3-path under stormConfig's read capacity,
// which the range queries' extents straddle (so the per-call capacity
// memory skips, probes and moves its floor inside the checked stream) —
// in lockstep with the sequential model. The
// byte stream is the schedule: 3 bytes per operation (opcode, key,
// value), keys folded into a 64-key space so the fuzzer hits every
// structural transition (root churn, leaf splits and joins, empty
// deletes) without having to guess 64-bit keys.
func FuzzOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7})
	// insert 1..4, delete 2, search 2, range over everything.
	f.Add([]byte{
		0, 1, 10, 0, 2, 20, 0, 3, 30, 0, 4, 40,
		1, 2, 0, 2, 2, 0, 3, 0, 64,
	})
	// hammer one key: insert/overwrite/delete cycles.
	f.Add([]byte{0, 9, 1, 0, 9, 2, 1, 9, 0, 0, 9, 3, 1, 9, 0, 1, 9, 0})
	// aggregate queries interleaved with churn.
	f.Add([]byte{0, 5, 5, 4, 0, 32, 0, 6, 6, 4, 4, 8, 1, 5, 0, 4, 0, 64})
	// scans on both sides of a 16-read capacity over a filling key space:
	// wide (overflows: the floor is learned), narrow (below it), wide
	// again (skipped or probed), then deletes thin the range out.
	f.Add([]byte{
		0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 6, 6, 0, 7, 7, 0, 8, 8,
		0, 9, 9, 0, 10, 1, 0, 11, 2, 0, 12, 3, 0, 13, 4, 0, 14, 5, 0, 15, 6, 0, 16, 7,
		3, 0, 63, 3, 0, 2, 3, 0, 63, 3, 0, 40, 3, 0, 63, 3, 0, 63,
		1, 3, 0, 1, 5, 0, 1, 7, 0, 1, 9, 0, 1, 11, 0, 1, 13, 0,
		3, 0, 63, 3, 0, 63, 3, 0, 63, 3, 0, 63, 3, 0, 20, 3, 0, 63,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		type sut struct {
			name string
			tree *htmtree.Tree
		}
		mk := func(name string, ctor func(htmtree.Config) (*htmtree.Tree, error), cfg htmtree.Config) sut {
			tree, err := ctor(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return sut{name, tree}
		}
		helpable := htmtree.Config{
			Algorithm:          htmtree.TLE,
			SpuriousAbortEvery: 3,
			AttemptLimit:       1,
			HelpableFallback:   true,
		}
		tight := stormConfig(htmtree.ThreePath, 0, 2)
		suts := []sut{
			mk("bst/3path", htmtree.NewBST, htmtree.Config{}),
			mk("abtree/3path", htmtree.NewABTree, htmtree.Config{}),
			mk("bst/3path-tight", htmtree.NewBST, tight),
			mk("abtree/3path-tight", htmtree.NewABTree, tight),
			mk("bst/tle-helpable", htmtree.NewBST, helpable),
			mk("abtree/tle-helpable", htmtree.NewABTree, helpable),
		}
		handles := make([]*htmtree.Handle, len(suts))
		for i, s := range suts {
			handles[i] = s.tree.NewHandle()
		}
		model := NewModel()

		for i := 0; i+3 <= len(data); i += 3 {
			op, kb, vb := data[i], data[i+1], data[i+2]
			k := uint64(kb%64) + 1
			v := uint64(vb)
			switch op % 5 {
			case 0:
				wantOld, wantEx := model.Insert(k, v)
				for j, h := range handles {
					old, existed := h.Insert(k, v)
					if existed != wantEx || (existed && old != wantOld) {
						t.Fatalf("%s op %d Insert(%d,%d) = (%d,%v), model (%d,%v)",
							suts[j].name, i/3, k, v, old, existed, wantOld, wantEx)
					}
				}
			case 1:
				wantOld, wantEx := model.Delete(k)
				for j, h := range handles {
					old, existed := h.Delete(k)
					if existed != wantEx || (existed && old != wantOld) {
						t.Fatalf("%s op %d Delete(%d) = (%d,%v), model (%d,%v)",
							suts[j].name, i/3, k, old, existed, wantOld, wantEx)
					}
				}
			case 2:
				want, wantOK := model.Search(k)
				for j, h := range handles {
					got, ok := h.Search(k)
					if ok != wantOK || (ok && got != want) {
						t.Fatalf("%s op %d Search(%d) = (%d,%v), model (%d,%v)",
							suts[j].name, i/3, k, got, ok, want, wantOK)
					}
				}
			case 3:
				lo, hi := k, k+uint64(vb%64)
				wantKeys, wantVals := model.RangeQuery(lo, hi)
				for j, h := range handles {
					out := h.RangeQuery(lo, hi, nil)
					if len(out) != len(wantKeys) {
						t.Fatalf("%s op %d RQ[%d,%d): %d pairs, model %d",
							suts[j].name, i/3, lo, hi, len(out), len(wantKeys))
					}
					for p, kv := range out {
						if kv.Key != wantKeys[p] || kv.Val != wantVals[p] {
							t.Fatalf("%s op %d RQ[%d,%d)[%d] = (%d,%d), model (%d,%d)",
								suts[j].name, i/3, lo, hi, p, kv.Key, kv.Val, wantKeys[p], wantVals[p])
						}
					}
				}
			case 4:
				lo, hi := k, k+uint64(vb%64)
				sum, cnt, min, max := model.RangeAgg(lo, hi)
				for j, h := range handles {
					got, err := h.RangeAgg(lo, hi)
					if err != nil {
						continue // structure without aggregate support
					}
					if got.Sum != sum || got.Count != cnt || got.Min != min || got.Max != max {
						t.Fatalf("%s op %d RangeAgg[%d,%d) = %+v, model (sum=%d,count=%d,min=%d,max=%d)",
							suts[j].name, i/3, lo, hi, got, sum, cnt, min, max)
					}
				}
			}
		}

		wantSum, wantCnt := model.KeySum()
		for _, s := range suts {
			sum, cnt := s.tree.KeySum()
			if sum != wantSum || cnt != wantCnt {
				t.Fatalf("%s KeySum = (%d,%d), model (%d,%d)", s.name, sum, cnt, wantSum, wantCnt)
			}
			if err := s.tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
	})
}
