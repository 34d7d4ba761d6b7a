package modelcheck

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"htmtree"
)

// bodyMode is one way an update body can be made to run: an algorithm
// and, for TLE, whatever forces its fallback.
type bodyMode struct {
	name string
	cfg  htmtree.Config
	// parked parks every update's owner right after it announces, so a
	// second handle's Help runs the whole body.
	parked bool
	// ran reports whether the per-path completion counts show the named
	// path — and no other — carried the updates.
	ran func(ops htmtree.PathCounts, updates uint64) bool
}

func bodyModes() []bodyMode {
	// TLE rows: every transactional access aborts, so each operation
	// exhausts a one-attempt fast path and takes the fallback.
	noFast := htmtree.Config{Algorithm: htmtree.TLE, SpuriousAbortEvery: 1, AttemptLimit: 1}
	helpable := noFast
	helpable.HelpableFallback = true
	onFirst := func(o htmtree.PathCounts, n uint64) bool { return o.Fast >= n && o.Middle == 0 && o.Fallback == 0 }
	onFallback := func(o htmtree.PathCounts, n uint64) bool { return o.Fallback >= n && o.Fast == 0 && o.Middle == 0 }
	return []bodyMode{
		{name: "3-path-fast", cfg: htmtree.Config{Algorithm: htmtree.ThreePath}, ran: onFirst},
		{name: "2-path-con-middle", cfg: htmtree.Config{Algorithm: htmtree.TwoPathConc}, ran: onFirst},
		{name: "non-htm-fallback", cfg: htmtree.Config{Algorithm: htmtree.NonHTM}, ran: onFallback},
		{name: "scx-htm", cfg: htmtree.Config{Algorithm: htmtree.SCXHTM}, ran: onFirst},
		{name: "tle-locked", cfg: noFast, ran: onFallback},
		{name: "tle-help-parked", cfg: helpable, parked: true, ran: onFallback},
	}
}

// TestEveryBodyModeAgreesWithModel drives one seeded single-threaded
// update sequence through each mode of each tree's one insert body and
// one delete body, in lockstep with the map model: insert-new,
// insert-existing, delete-present, delete-absent, delete-to-empty and
// reinsert, then enough ascending inserts and deletes to split and
// underfill (a,b)-tree leaves, then a random mix. Every return value,
// the final key sum and the invariants must agree, and the completion
// counts must show the named path ran. In the parked row no owner ever
// executes its own update: a helper on a second handle does.
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
				cfg := m.cfg
				var armed atomic.Bool
				announced := make(chan struct{})
				resume := make(chan struct{})
				if m.parked {
					cfg.Faults = htmtree.NewFaultPlan(0, htmtree.FaultRule{
						Point: htmtree.FaultFallbackOwner,
						Func: func() {
							// One-shot per update: the owner's (a,b)-tree
							// fix steps take the classic lock through the
							// same seam and must not park.
							if armed.CompareAndSwap(true, false) {
								announced <- struct{}{}
								<-resume
							}
						},
					})
				}
				newTree := htmtree.NewBST
				if structure == "abtree" {
					newTree = htmtree.NewABTree
				}
				tree, err := newTree(cfg)
				if err != nil {
					t.Fatal(err)
				}
				owner, helper := tree.NewHandle(), tree.NewHandle()
				model := NewModel()
				var updates uint64

				// run executes one update on the owner handle; parked rows
				// have the helper complete it while the owner sits between
				// its announcement and its first step.
				run := func(op func()) {
					updates++
					if !m.parked {
						op()
						return
					}
					armed.Store(true)
					done := make(chan struct{})
					go func() {
						defer close(done)
						op()
					}()
					select {
					case <-announced:
					case <-done:
						fatalf("update %d completed without announcing", updates)
					}
					if !helper.Help() {
						fatalf("update %d: helper found nothing to help", updates)
					}
					if helper.Help() {
						fatalf("update %d: helped a finished operation", updates)
					}
					resume <- struct{}{}
					<-done
				}
				insert := func(k, v uint64) {
					var old uint64
					var existed bool
					run(func() { old, existed = owner.Insert(k, v) })
					wantOld, wantEx := model.Insert(k, v)
					if existed != wantEx || (existed && old != wantOld) {
						fatalf("update %d Insert(%d,%d) = (%d,%v), model (%d,%v)", updates, k, v, old, existed, wantOld, wantEx)
					}
				}
				remove := func(k uint64) {
					var old uint64
					var existed bool
					run(func() { old, existed = owner.Delete(k) })
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
