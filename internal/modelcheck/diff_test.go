package modelcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"htmtree"
)

// combo is one point of the differential sweep: every template
// algorithm, both structures, unsharded and 8-way sharded — the latter
// over the uniform key-range split, which the name records as "range".
type combo struct {
	structure string
	algorithm htmtree.Algorithm
	shards    int
}

func allCombos() []combo {
	var cs []combo
	for _, structure := range []string{"bst", "abtree"} {
		for _, alg := range htmtree.Algorithms() {
			cs = append(cs, combo{structure, alg, 1}, combo{structure, alg, 8})
		}
	}
	return cs
}

func (c combo) name() string {
	n := fmt.Sprintf("%s/%s/x%d", c.structure, c.algorithm, c.shards)
	if c.shards > 1 {
		n += "/range"
	}
	return n
}

func (c combo) build(t *testing.T, keySpan uint64) *htmtree.Tree {
	t.Helper()
	cfg := htmtree.Config{
		Algorithm:    c.algorithm,
		Shards:       c.shards,
		ShardKeySpan: keySpan,
	}
	var (
		tree *htmtree.Tree
		err  error
	)
	switch {
	case c.structure == "bst" && c.shards > 1:
		tree, err = htmtree.NewShardedBST(cfg)
	case c.structure == "bst":
		tree, err = htmtree.NewBST(cfg)
	case c.shards > 1:
		tree, err = htmtree.NewShardedABTree(cfg)
	default:
		tree, err = htmtree.NewABTree(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestDifferentialAllConfigurations drives one random operation stream
// through every configuration and the model in lockstep. Every return
// value must agree; every range query must return exactly the model's
// pairs in ascending key order (for sharded trees this exercises
// fan-out windows that land inside one shard, cross a boundary, and
// span all shards); and the final key-sum and invariants must hold.
//
// Point-op keys are drawn with a quadratic bias toward the low end of
// the key space (product of two uniforms), so the sharded combos' low
// shards run hot while the high ones stay sparse.
func TestDifferentialAllConfigurations(t *testing.T) {
	t.Parallel()
	const (
		keySpan = 512
		numOps  = 4000
	)
	for _, c := range allCombos() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			tree := c.build(t, keySpan)
			h := tree.NewHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(0x5eed))
			for i := 0; i < numOps; i++ {
				k := uint64(rng.Intn(keySpan))*uint64(rng.Intn(keySpan))/keySpan + 1
				switch rng.Intn(8) {
				case 0, 1, 2:
					v := uint64(rng.Intn(1 << 30))
					old, existed := h.Insert(k, v)
					wantOld, wantEx := model.Insert(k, v)
					if existed != wantEx || (existed && old != wantOld) {
						t.Fatalf("op %d Insert(%d,%d) = (%d,%v), model (%d,%v)",
							i, k, v, old, existed, wantOld, wantEx)
					}
				case 3, 4:
					old, existed := h.Delete(k)
					wantOld, wantEx := model.Delete(k)
					if existed != wantEx || (existed && old != wantOld) {
						t.Fatalf("op %d Delete(%d) = (%d,%v), model (%d,%v)",
							i, k, old, existed, wantOld, wantEx)
					}
				case 5, 6:
					got, found := h.Search(k)
					want, ok := model.Search(k)
					if found != ok || (found && got != want) {
						t.Fatalf("op %d Search(%d) = (%d,%v), model (%d,%v)",
							i, k, got, found, want, ok)
					}
				case 7:
					// Window length biased from tiny (one shard) to the
					// whole key space (all shards).
					lo := uint64(rng.Intn(keySpan)) + 1
					hi := lo + uint64(rng.Intn(keySpan))
					out := h.RangeQuery(lo, hi, nil)
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
						if j > 0 && out[j-1].Key >= kv.Key {
							t.Fatalf("op %d RQ[%d,%d) not in ascending key order", i, lo, hi)
						}
					}
				}
			}
			sum, count := tree.KeySum()
			wantSum, wantCount := model.KeySum()
			if sum != wantSum || count != wantCount {
				t.Fatalf("KeySum = (%d,%d), model (%d,%d)", sum, count, wantSum, wantCount)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRangeQuerySnapshotConsistency checks range queries against
// concurrent updates. A writer toggles whole key blocks between
// "all present" (with val = key*2) and "all absent", so a mid-toggle
// window may see a block partially — but every pair a reader does see
// must be well-formed: key inside the requested window, ascending
// order across shard boundaries, and the value the write discipline
// dictates (a torn pair would betray a non-atomic per-shard read).
func TestRangeQuerySnapshotConsistency(t *testing.T) {
	t.Parallel()
	const (
		blockSize = 64
		numBlocks = 16
		keySpan   = blockSize * numBlocks
	)
	for _, shards := range []int{1, 8} {
		shards := shards
		t.Run(fmt.Sprintf("x%d", shards), func(t *testing.T) {
			t.Parallel()
			cfg := htmtree.Config{
				Algorithm:    htmtree.ThreePath,
				Shards:       shards,
				ShardKeySpan: keySpan,
			}
			var (
				tree *htmtree.Tree
				err  error
			)
			if shards > 1 {
				tree, err = htmtree.NewShardedABTree(cfg)
			} else {
				tree, err = htmtree.NewABTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				h := tree.NewHandle()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					b := uint64(i % numBlocks)
					lo := b*blockSize + 1
					for k := lo; k < lo+blockSize; k++ {
						if i%2 == 0 {
							h.Insert(k, k*2)
						} else {
							h.Delete(k)
						}
					}
				}
			}()

			h := tree.NewHandle()
			rng := rand.New(rand.NewSource(99))
			iters := 3000
			if testing.Short() {
				iters = 500
			}
			for i := 0; i < iters; i++ {
				lo := uint64(rng.Intn(keySpan)) + 1
				hi := lo + uint64(rng.Intn(4*blockSize))
				out := h.RangeQuery(lo, hi, nil)
				for j, kv := range out {
					if kv.Key < lo || kv.Key >= hi {
						t.Fatalf("RQ[%d,%d) returned out-of-window key %d", lo, hi, kv.Key)
					}
					if j > 0 && out[j-1].Key >= kv.Key {
						t.Fatalf("RQ[%d,%d) not in ascending key order", lo, hi)
					}
					if kv.Val != kv.Key*2 {
						t.Fatalf("RQ[%d,%d) observed torn pair (%d,%d)", lo, hi, kv.Key, kv.Val)
					}
				}
			}
			close(stop)
			<-writerDone
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
