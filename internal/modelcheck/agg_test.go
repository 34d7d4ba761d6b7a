package modelcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"htmtree"
)

// buildAgg constructs the combo's tree for aggregate checking: sharded
// combos get AtomicRangeQueries (aggregate fan-outs require the atomic
// read protocol).
func (c combo) buildAgg(t *testing.T, keySpan uint64) *htmtree.Tree {
	t.Helper()
	cfg := htmtree.Config{
		Algorithm:          c.algorithm,
		Shards:             c.shards,
		ShardKeySpan:       keySpan,
		AtomicRangeQueries: c.shards > 1,
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

// TestDifferentialAggregates drives a random stream of updates and
// aggregate queries through every configuration and the model in
// lockstep: every RangeAgg window (and the whole-tree Count/Min/Max
// convenience forms) must return exactly the model's tuple. Both trees
// fold their range query, so this checks the fold over every path the
// range query runs on. The final CheckInvariants checks the structure.
func TestDifferentialAggregates(t *testing.T) {
	t.Parallel()
	const (
		keySpan = 512
		numOps  = 4000
	)
	for _, c := range allCombos() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			tree := c.buildAgg(t, keySpan)
			h := tree.NewHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(0xa66a))
			for i := 0; i < numOps; i++ {
				k := uint64(rng.Intn(keySpan))*uint64(rng.Intn(keySpan))/keySpan + 1
				op := rng.Intn(8)
				// First third: updates only, so the aggregate-heavy
				// remainder checks against a populated tree.
				if i < numOps/3 && op > 4 {
					op = rng.Intn(5)
				}
				switch op {
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
					// Window length biased from tiny (one shard) to the
					// whole key space (all shards).
					lo := uint64(rng.Intn(keySpan)) + 1
					hi := lo + uint64(rng.Intn(keySpan))
					a, err := h.RangeAgg(lo, hi)
					if err != nil {
						t.Fatalf("op %d RangeAgg[%d,%d): %v", i, lo, hi, err)
					}
					sum, count, min, max := model.RangeAgg(lo, hi)
					if a.Sum != sum || a.Count != count || a.Min != min || a.Max != max {
						t.Fatalf("op %d RangeAgg[%d,%d) = %+v, model {Sum:%d Count:%d Min:%d Max:%d}",
							i, lo, hi, a, sum, count, min, max)
					}
				case 7:
					sum, count, min, max := model.RangeAgg(0, htmtree.MaxKey+1)
					gotCount, err := h.Count()
					if err != nil || gotCount != count {
						t.Fatalf("op %d Count() = (%d,%v), model %d", i, gotCount, err, count)
					}
					gotMin, ok, err := h.Min()
					if err != nil || ok != (count > 0) || (ok && gotMin != min) {
						t.Fatalf("op %d Min() = (%d,%v,%v), model (%d,%v)", i, gotMin, ok, err, min, count > 0)
					}
					gotMax, ok, err := h.Max()
					if err != nil || ok != (count > 0) || (ok && gotMax != max) {
						t.Fatalf("op %d Max() = (%d,%v,%v), model (%d,%v)", i, gotMax, ok, err, max, count > 0)
					}
					gotSum, gotN, err := h.RangeSum(0, htmtree.MaxKey+1)
					if err != nil || gotSum != sum || gotN != count {
						t.Fatalf("op %d RangeSum = (%d,%d,%v), model (%d,%d)", i, gotSum, gotN, err, sum, count)
					}
				}
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rrMass is the aggregate mass of the round-robin regions: after
// warmup the harness writers keep every key in [1, numRR*rrKeys]
// permanently present (steps only overwrite values), so their sum and
// count are constants of every consistent cut.
const rrTotal = numRR * rrKeys

func rrBaseSum() uint64 { return uint64(rrTotal) * uint64(rrTotal+1) / 2 }

// checkFullAgg verifies a whole-span aggregate tuple is a consistent
// cut of the harness writers: the fixed round-robin mass plus exactly
// one ring token, or two on adjacent slots; Min pinned by key 1 and
// Max by the highest token the sum implies.
func checkFullAgg(a htmtree.Agg) error {
	base := rrBaseSum()
	if a.Min != 1 {
		return fmt.Errorf("full-span agg Min = %d, want 1 (key 1 is permanently present)", a.Min)
	}
	switch a.Count {
	case rrTotal + 1:
		j, ok := ringIndex(a.Sum - base)
		if !ok {
			return fmt.Errorf("full-span agg (%d,%d): extra mass %d is no single ring token", a.Sum, a.Count, a.Sum-base)
		}
		if a.Max != ringKey(j) {
			return fmt.Errorf("full-span agg Max = %d, want token %d", a.Max, ringKey(j))
		}
	case rrTotal + 2:
		// Two pair sums can coincide (the wrap-around pair aliases an
		// interior one), so a pair matches only if both its sum and its
		// higher token agree with the observed tuple.
		for j := 0; j < ringSize; j++ {
			n := (j + 1) % ringSize
			hiTok := ringKey(j)
			if ringKey(n) > hiTok {
				hiTok = ringKey(n)
			}
			if a.Sum-base == ringKey(j)+ringKey(n) && a.Max == hiTok {
				return nil
			}
		}
		return fmt.Errorf("full-span agg (Sum:%d Count:%d Max:%d): extra mass %d matches no adjacent token pair", a.Sum, a.Count, a.Max, a.Sum-base)
	default:
		return fmt.Errorf("full-span agg count %d, want %d or %d", a.Count, rrTotal+1, rrTotal+2)
	}
	return nil
}

// runAggAtomicityHarness reuses the cross-shard atomicity writers
// (round-robin value rewriters hopping shards each step, plus a ring
// token walker) but reads with RangeAgg instead of RangeQuery: unlike
// a torn range query, a torn aggregate leaves no per-key output to
// cross-check, so the checks here are closed-form invariants every
// consistent cut must satisfy. On both trees the tuple is the fold of
// the sharded tree's atomic RangeQuery.
func runAggAtomicityHarness(t *testing.T, c atomicityCase, iters int) []error {
	t.Helper()
	tree := c.build(t)
	stop := startAtomicityWriters(tree)

	var violations []error
	record := func(err error) {
		if err != nil && len(violations) < 10 {
			violations = append(violations, err)
		}
	}
	h := tree.NewHandle()
	meter := pinMeter{tree: tree}
	meter.begin()
	rng := rand.New(rand.NewSource(0xa66b1c))
	for i := 0; i < iters; i++ {
		// Full-span aggregate: every writer's region plus the ring.
		a, aerr := h.RangeAgg(1, atomicSpan+1)
		if aerr != nil {
			record(aerr)
			continue
		}
		record(checkFullAgg(a))

		// Window fully inside the round-robin regions, where every key
		// is permanently present: the tuple is known in closed form, so
		// any tear in sum, count, min or max is directly visible.
		lo := uint64(rng.Intn(rrTotal-64)) + 1
		hi := lo + 48 + uint64(rng.Intn(rrTotal-int(lo)-47))
		a, aerr = h.RangeAgg(lo, hi)
		if aerr != nil {
			record(aerr)
			continue
		}
		want := htmtree.Agg{
			Sum:   (lo + hi - 1) * (hi - lo) / 2,
			Count: hi - lo,
			Min:   lo,
			Max:   hi - 1,
		}
		if a != want {
			record(fmt.Errorf("agg[%d,%d) = %+v, want %+v (all round-robin keys are permanently present)", lo, hi, a, want))
		}
	}
	meter.end()
	stop()
	meter.check(t, c.pins)
	afterAtomicityRun(t, c, tree)
	return violations
}

// TestCrossShardAggregateAtomicity runs concurrent updaters against
// cross-shard aggregate queries: every merged tuple must be a consistent
// cut of the writers' sequential histories. RangeAgg shares RangeQuery's
// protocol, so the cases mirror TestCrossShardRangeQueryAtomicity's and
// assert the same split between pinned transactions and sampling. The
// tle variants put TLE writers against readers subscribed to the lock
// word — partly sampled, sent there by capacity aborts, and pinned with
// every update forced onto the lock (fallbackWriteCapacity).
func TestCrossShardAggregateAtomicity(t *testing.T) {
	t.Parallel()
	runAtomicityCases(t, "aggregate", []atomicityCase{
		{name: "range", abtree: true, pins: pinAll},
		{name: "tle", abtree: true, pins: pinSome, cfg: htmtree.Config{
			Algorithm: htmtree.TLE, ReadCapacity: smallReadCapacity}},
		{name: "tle-pinned", abtree: true, pins: pinAll, cfg: htmtree.Config{
			Algorithm: htmtree.TLE, WriteCapacity: fallbackWriteCapacity}},
		{name: "bst", pins: pinAll},
		{name: "small-capacity", abtree: true, pins: pinSome, cfg: htmtree.Config{ReadCapacity: smallReadCapacity}},
		{name: "fallback-writers", abtree: true, pins: pinAll, cfg: htmtree.Config{WriteCapacity: fallbackWriteCapacity}},
		{name: "non-htm", abtree: true, pins: pinNone, cfg: htmtree.Config{Algorithm: htmtree.NonHTM}},
	}, runAggAtomicityHarness)
}
