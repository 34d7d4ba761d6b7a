package modelcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"htmtree"
)

// pendingCheck pairs a batched operation's future with the result the
// sequential model predicts for it. The prediction is computed at
// enqueue time, which is sound because the batch contract pins per-op
// results to per-key program order: a point operation's result depends
// only on the preceding operations on its own key, and those keep
// their enqueue order through the sort and the shard grouping — so the
// model applied in enqueue order predicts every batched result
// exactly, whatever cross-key reordering execution performs.
type pendingCheck struct {
	desc     string
	fut      htmtree.PointFuture
	wantVal  uint64
	wantOK   bool
	wantless bool // Insert/Delete with existed=false: Val unspecified
}

// TestBatchedDifferentialAllRouters drives one random operation stream
// through an asynchronous (batched) handle and the sequential model in
// lockstep, over both structures sharded 8 ways by the uniform key-range
// split. Flushes are triggered every way the subsystem supports — size
// threshold, flushing RangeQuery, explicit Flush, and Wait on a buffered
// future — and every resolved future must match the model, every range
// query must return exactly the model's pairs, and the final key-sum,
// structural invariants, and partition invariant must hold.
func TestBatchedDifferentialAllRouters(t *testing.T) {
	t.Parallel()
	const (
		keySpan = 512
		numOps  = 4000
	)
	for _, structure := range []string{"bst", "abtree"} {
		structure := structure
		t.Run(structure+"/x8/range", func(t *testing.T) {
			t.Parallel()
			cfg := htmtree.Config{
				Algorithm:    htmtree.ThreePath,
				Shards:       8,
				ShardKeySpan: keySpan,
				BatchMaxOps:  16,
			}
			var (
				tree *htmtree.Tree
				err  error
			)
			if structure == "bst" {
				tree, err = htmtree.NewShardedBST(cfg)
			} else {
				tree, err = htmtree.NewShardedABTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			ah := tree.NewAsyncHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(0xba7c4))

			var pend []pendingCheck
			drain := func(i int) {
				for _, pc := range pend {
					val, ok := pc.fut.Wait()
					if ok != pc.wantOK || (ok && !pc.wantless && val != pc.wantVal) {
						t.Fatalf("op %d %s = (%d,%v), model (%d,%v)",
							i, pc.desc, val, ok, pc.wantVal, pc.wantOK)
					}
				}
				pend = pend[:0]
			}

			for i := 0; i < numOps; i++ {
				// Quadratic low-end bias: the low shards' groups
				// run long, the high shards' short.
				k := uint64(rng.Intn(keySpan))*uint64(rng.Intn(keySpan))/keySpan + 1
				switch rng.Intn(10) {
				case 0, 1, 2:
					v := uint64(rng.Intn(1 << 30))
					wantOld, wantEx := model.Insert(k, v)
					pend = append(pend, pendingCheck{
						desc: fmt.Sprintf("Insert(%d,%d)", k, v),
						fut:  ah.Insert(k, v), wantVal: wantOld, wantOK: wantEx, wantless: !wantEx,
					})
				case 3, 4:
					wantOld, wantEx := model.Delete(k)
					pend = append(pend, pendingCheck{
						desc: fmt.Sprintf("Delete(%d)", k),
						fut:  ah.Delete(k), wantVal: wantOld, wantOK: wantEx, wantless: !wantEx,
					})
				case 5, 6:
					want, wantOK := model.Search(k)
					pend = append(pend, pendingCheck{
						desc: fmt.Sprintf("Search(%d)", k),
						fut:  ah.Search(k), wantVal: want, wantOK: wantOK,
					})
				case 7:
					// Flushing range query: a sync point that must
					// observe every op enqueued so far (the model
					// already has).
					lo := uint64(rng.Intn(keySpan)) + 1
					hi := lo + uint64(rng.Intn(keySpan))
					out := ah.RangeQuery(lo, hi).Wait()
					wantKeys, wantVals := model.RangeQuery(lo, hi)
					if len(out) != len(wantKeys) {
						t.Fatalf("op %d RQ[%d,%d): %d pairs, model %d",
							i, lo, hi, len(out), len(wantKeys))
					}
					for j, kv := range out {
						if kv.Key != wantKeys[j] || kv.Val != wantVals[j] {
							t.Fatalf("op %d RQ[%d,%d)[%d] = (%d,%d), model (%d,%d)",
								i, lo, hi, j, kv.Key, kv.Val, wantKeys[j], wantVals[j])
						}
					}
					drain(i)
				case 8:
					ah.Flush()
					drain(i)
				case 9:
					// Wait on a buffered future mid-batch: flushes.
					if len(pend) > 0 {
						drain(i)
					}
				}
			}
			ah.Flush()
			drain(numOps)

			sum, count := tree.KeySum()
			wantSum, wantCount := model.KeySum()
			if sum != wantSum || count != wantCount {
				t.Fatalf("KeySum = (%d,%d), model (%d,%d)", sum, count, wantSum, wantCount)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := tree.Stats()
			if st.Batch.Flushes == 0 || st.Batch.BatchedOps == 0 {
				t.Fatalf("no batched execution recorded: %+v", st.Batch)
			}
			if st.Batch.Groups == 0 {
				t.Fatalf("no shard-groups recorded on a sharded tree: %+v", st.Batch)
			}
		})
	}
}
