package bst

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

// TestFallbackOwnerDeath kills a 3-path insert on the fallback path,
// right after it arrived on F and before it did anything: the goroutine
// parks forever with F held. That is the progress the middle path exists
// for. The fast path admits no update while F is non-zero, so another
// handle's updates must all complete on the middle path, and the dead
// insert must have no effect. Released at teardown, the owner completes
// its insert, F drains, and updates take the fast path again.
func TestFallbackOwnerDeath(t *testing.T) {
	t.Parallel()
	// The owner's fast and middle attempts make the tree's first two
	// transactional accesses; both abort by capacity, which sends it to
	// the fallback path, where the owner seam kills it.
	plan := fault.New(1,
		fault.Rule{Point: fault.PointTxAccess, Every: 1, Count: 2, Cause: uint8(htm.CauseCapacity)},
		fault.Rule{Point: fault.PointFallbackOwner, Every: 1, Count: 1, Kill: true},
	)
	tr := New(Config{HTM: htm.Config{Faults: plan}, Engine: engine.Config{Faults: plan}})
	owner, other := tr.newHandle(), tr.newHandle()
	const dead, n = 1000, 40
	done := make(chan struct{})
	var existed bool
	go func() {
		defer close(done)
		_, existed = owner.Insert(dead, 1)
	}()
	for plan.Fires(fault.PointFallbackOwner) == 0 {
		runtime.Gosched()
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
	if s := tr.OpStats(); s.Fast != 0 || s.Fallback != 0 || s.Middle != updates {
		t.Fatalf("%d updates beside a dead owner holding F completed as %+v: want all on the middle path", updates, s.PathCounts)
	}
	if _, ok := other.Search(dead); ok {
		t.Fatal("the dead owner's insert took effect")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("killed owner returned before release")
	default:
	}

	// Teardown: the released owner runs its insert on the fallback path,
	// and with F drained the fast path is open again.
	plan.ReleaseKilled()
	<-done
	if existed {
		t.Fatal("released owner's insert reported the key present")
	}
	fast := tr.OpStats().Fast
	other.Insert(n+1, 0)
	if tr.OpStats().Fast == fast {
		t.Fatal("an update after the owner's release did not take the fast path: F did not drain")
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
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
