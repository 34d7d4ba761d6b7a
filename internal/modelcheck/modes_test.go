package modelcheck

import (
	"math/rand"
	"testing"

	"htmtree"
	"htmtree/internal/htm"
)

// bodyMode is one way an update body can be made to run: an algorithm
// and, for TLE, whatever forces its fallback.
type bodyMode struct {
	name string
	cfg  htmtree.Config
	// ran reports whether the per-path completion counts show the named
	// path — and no other — carried the updates.
	ran func(ops htmtree.PathCounts, updates uint64) bool
}

func bodyModes() []bodyMode {
	// The TLE row: every transactional access aborts by capacity, so
	// each operation leaves the fast path on its first attempt and takes
	// the lock.
	noFast := htmtree.Config{Algorithm: htmtree.TLE, Faults: txAborts(1, htm.CauseCapacity)}
	onFirst := func(o htmtree.PathCounts, n uint64) bool { return o.Fast >= n && o.Middle == 0 && o.Fallback == 0 }
	onFallback := func(o htmtree.PathCounts, n uint64) bool { return o.Fallback >= n && o.Fast == 0 && o.Middle == 0 }
	return []bodyMode{
		{name: "3-path-fast", cfg: htmtree.Config{Algorithm: htmtree.ThreePath}, ran: onFirst},
		{name: "2-path-con-middle", cfg: htmtree.Config{Algorithm: htmtree.TwoPathConc}, ran: onFirst},
		{name: "non-htm-fallback", cfg: htmtree.Config{Algorithm: htmtree.NonHTM}, ran: onFallback},
		{name: "scx-htm", cfg: htmtree.Config{Algorithm: htmtree.SCXHTM}, ran: onFirst},
		{name: "tle-locked", cfg: noFast, ran: onFallback},
	}
}

// TestEveryBodyModeAgreesWithModel drives one seeded single-threaded
// update sequence through each mode of each tree's one insert body and
// one delete body, in lockstep with the map model: insert-new,
// insert-existing, delete-present, delete-absent, delete-to-empty and
// reinsert, then enough ascending inserts and deletes to split and
// underfill (a,b)-tree leaves, then a random mix. Every return value,
// the final key sum and the invariants must agree, and the completion
// counts must show the named path ran.
func TestEveryBodyModeAgreesWithModel(t *testing.T) {
	const (
		seed    = 0x16
		keySpan = 96
		numOps  = 300
	)
	for _, structure := range []string{"bst", "abtree"} {
		for _, m := range bodyModes() {
			structure, m := structure, m
			t.Run(structure+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				fatalf := func(format string, args ...any) {
					t.Helper()
					t.Logf("seed=%#x tree=%s mode=%s", seed, structure, m.name)
					t.Fatalf(format, args...)
				}
				newTree := htmtree.NewBST
				if structure == "abtree" {
					newTree = htmtree.NewABTree
				}
				tree, err := newTree(m.cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := tree.NewHandle()
				model := NewModel()
				var updates uint64

				insert := func(k, v uint64) {
					updates++
					old, existed := h.Insert(k, v)
					wantOld, wantEx := model.Insert(k, v)
					if existed != wantEx || (existed && old != wantOld) {
						fatalf("update %d Insert(%d,%d) = (%d,%v), model (%d,%v)", updates, k, v, old, existed, wantOld, wantEx)
					}
				}
				remove := func(k uint64) {
					updates++
					old, existed := h.Delete(k)
					wantOld, wantEx := model.Delete(k)
					if existed != wantEx || (existed && old != wantOld) {
						fatalf("update %d Delete(%d) = (%d,%v), model (%d,%v)", updates, k, old, existed, wantOld, wantEx)
					}
				}

				insert(10, 1) // new
				insert(10, 2) // existing: value update
				remove(10)    // present, and the tree is empty again
				remove(10)    // absent
				insert(10, 3) // reinsert into the emptied tree
				for k := uint64(20); k < 20+48; k++ {
					insert(k, k) // ascending: (a,b)-tree leaves fill and split
				}
				for k := uint64(20); k < 20+48; k++ {
					remove(k) // and drain: leaves underfill and join
				}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < numOps; i++ {
					k := uint64(rng.Intn(keySpan)) + 1
					if rng.Intn(5) < 3 {
						insert(k, uint64(rng.Intn(1<<30)))
					} else {
						remove(k)
					}
				}

				sum, count := tree.KeySum()
				wantSum, wantCount := model.KeySum()
				if sum != wantSum || count != wantCount {
					fatalf("KeySum = (%d,%d), model (%d,%d)", sum, count, wantSum, wantCount)
				}
				if err := tree.CheckInvariants(); err != nil {
					fatalf("%v", err)
				}
				if ops := tree.Stats().Ops; !m.ran(ops, updates) {
					fatalf("%d updates completed as %+v: the named path did not carry them", updates, ops)
				}
			})
		}
	}
}
