package abtree

import (
	"runtime"
	"testing"

	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// txAborts is a TM configuration whose transactional accesses abort
// with the given cause: every access when every is 1, each with
// probability 1/every otherwise.
func txAborts(every int, cause htm.AbortCause) htm.Config {
	r := fault.Rule{Point: fault.PointTxAccess, Cause: uint8(cause)}
	if every == 1 {
		r.Every = 1
	} else {
		r.Prob = 1 / float64(every)
	}
	return htm.Config{Faults: fault.New(uint64(every), r)}
}

// TestFallbackOwnerDeath kills an insert as its software path begins,
// before it did anything: the goroutine parks forever. Another handle's
// updates — splits and the fix steps they leave included — must all complete, on one path, and the dead insert must
// have no effect. Released at teardown, the owner completes its insert,
// and updates take the fast path again.
//
// Under 3-path the owner dies holding F. That is the progress the middle
// path exists for: the fast path admits no update while F is non-zero,
// so the others' updates complete on the middle path. scx-htm keeps no
// F, so they complete on their HTM-SCX attempts (counted as fast).
func TestFallbackOwnerDeath(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		alg engine.Algorithm
		// aborts is how many transactional accesses the owner makes
		// before its software path, each aborted by capacity: 3-path's
		// fast and middle attempts, and scx-htm's budgeted attempts,
		// whose one transaction is inside the SCX.
		aborts uint64
		beside func(engine.OpStats) uint64 // where the others' updates complete
	}{
		{engine.AlgThreePath, 2, func(s engine.OpStats) uint64 { return s.Middle }},
		{engine.AlgSCXHTM, 20, func(s engine.OpStats) uint64 { return s.Fast }},
	} {
		c := c
		t.Run(c.alg.String(), func(t *testing.T) {
			t.Parallel()
			plan := fault.New(1,
				fault.Rule{Point: fault.PointTxAccess, Every: 1, Count: c.aborts, Cause: uint8(htm.CauseCapacity)},
				fault.Rule{Point: fault.PointFallbackOwner, Every: 1, Count: 1, Kill: true},
			)
			tr := New(Config{Algorithm: c.alg, HTM: htm.Config{Faults: plan}, Engine: engine.Config{Faults: plan}})
			owner, other := tr.newHandle(), tr.newHandle()
			const dead, n = 1000, 40
			done := make(chan struct{})
			var existed bool
			go func() {
				defer close(done)
				_, existed = owner.Insert(dead, 1)
			}()
			for plan.Fires(fault.PointFallbackOwner) == 0 {
				select {
				case <-done:
					t.Fatal("the owner completed without passing the owner seam")
				default:
					runtime.Gosched()
				}
			}

			updates := uint64(0)
			for k := uint64(1); k <= n; k++ {
				other.Insert(k, k*10)
				updates++
			}
			for k := uint64(1); k <= n; k += 4 {
				other.Delete(k)
				updates++
			}
			if s := tr.OpStats(); s.Total() != c.beside(s) || c.beside(s) < updates {
				t.Fatalf("%d updates beside a dead owner completed as %+v: want all on one path", updates, s.PathCounts)
			}
			if _, ok := other.Search(dead); ok {
				t.Fatal("the dead owner's insert took effect")
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
				t.Fatal("killed owner returned before release")
			default:
			}

			// Teardown: the released owner runs its insert on the software
			// path, and (with F drained) the fast path is open again.
			plan.ReleaseKilled()
			<-done
			if existed {
				t.Fatal("released owner's insert reported the key present")
			}
			fast := tr.OpStats().Fast
			other.Insert(n+1, 0)
			if tr.OpStats().Fast == fast {
				t.Fatal("an update after the owner's release did not take the fast path")
			}
			for k := uint64(1); k <= n; k++ {
				want, wantOK := k*10, (k-1)%4 != 0
				if !wantOK {
					want = 0
				}
				if v, ok := other.Search(k); ok != wantOK || v != want {
					t.Fatalf("Search(%d) = (%d,%v), want (%d,%v)", k, v, ok, want, wantOK)
				}
			}
			if v, ok := other.Search(dead); !ok || v != 1 {
				t.Fatalf("Search(%d) = (%d,%v) after the owner's release, want (1,true)", dead, v, ok)
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}
