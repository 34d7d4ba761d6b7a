package nodepool

import (
	"sync"
	"testing"
)

type node struct{ leaf bool }

// fakeRetirer holds retirees until the test lets the grace period
// expire.
type fakeRetirer struct {
	limbo []any
}

func (r *fakeRetirer) Retire(x any) { r.limbo = append(r.limbo, x) }

// expire releases every retiree into p, as ebr does when their grace
// period ends.
func (r *fakeRetirer) expire(p *Pool[node]) {
	for _, x := range r.limbo {
		p.Release(x)
	}
	r.limbo = nil
}

func newTestPool() (*Pool[node], *fakeRetirer) {
	r := &fakeRetirer{}
	p := New[node](func(n *node) bool { return n.leaf },
		func(leaf bool) *node { return &node{leaf: leaf} }, r)
	return p, r
}

func (p *Pool[N]) lens() [numLists]int {
	return [numLists]int{len(p.free[listLeaf]), len(p.free[listInner])}
}

// removeAndSettle runs one operation that unlinks the given nodes.
func removeAndSettle(p *Pool[node], nodes ...*node) {
	p.BeginAttempt()
	for _, n := range nodes {
		p.Remove(n)
	}
	p.Settle()
}

// TestSettleRetiresEveryRemoval: every node an operation removes, leaf
// or internal, goes through Retire, and reaches its list — leaf, inner —
// only when the grace period expires. Size counts both lists.
func TestSettleRetiresEveryRemoval(t *testing.T) {
	p, r := newTestPool()
	for i := 0; i < 3; i++ {
		removeAndSettle(p, &node{leaf: true}, &node{})
	}
	if got, want := p.lens(), [numLists]int{0, 0}; got != want {
		t.Fatalf("settles pooled nodes before their grace period: lists %v, want %v", got, want)
	}
	if len(r.limbo) != 6 {
		t.Fatalf("limbo holds %d nodes, want 6", len(r.limbo))
	}
	if st := p.Stats(); st.Retired != 6 || st.Freed != 0 {
		t.Fatalf("stats %+v, want 6 retired, 0 freed", st)
	}
	r.expire(p)
	if got, want := p.lens(), [numLists]int{3, 3}; got != want {
		t.Fatalf("after the grace period: lists %v, want %v", got, want)
	}
	if p.Size() != 6 || p.Stats().Freed != 6 {
		t.Fatalf("Size = %d, Freed = %d, want 6 and 6", p.Size(), p.Stats().Freed)
	}
}

// TestTakePrefersGraceReleasedLeaves: Take hands out the nodes that
// came back through a grace period before it allocates, each from the
// list of the kind asked for.
func TestTakePrefersGraceReleasedLeaves(t *testing.T) {
	p, r := newTestPool()
	graced, inner := &node{leaf: true}, &node{}
	removeAndSettle(p, graced, inner)
	r.expire(p)

	p.BeginAttempt()
	if n := p.Take(true); n != graced {
		t.Fatalf("first Take = %p, want the grace-released leaf %p", n, graced)
	}
	if n := p.Take(true); n == nil || n == graced || !n.leaf {
		t.Fatalf("second Take = %+v, want a fresh leaf", n)
	}
	if n := p.Take(false); n != inner {
		t.Fatalf("Take(inner) = %p, want the grace-released internal node %p", n, inner)
	}
	if n := p.Take(false); n == nil || n == inner || n.leaf {
		t.Fatalf("Take(inner) = %+v, want a fresh internal node", n)
	}
	if st := p.Stats(); st.Reused != 2 || st.Fresh != 2 {
		t.Fatalf("stats %+v, want 2 reused, 2 fresh", st)
	}
	p.Settle() // published: nothing returns
	if p.Size() != 0 {
		t.Fatalf("Size = %d after the drawn nodes were published, want 0", p.Size())
	}
}

// TestBeginAttemptReturnsNodesWhereTheyCameFrom: an attempt that failed
// published nothing, so each of its nodes goes back to the list of its
// kind (a fresh one too: nobody ever saw it), and is drawn from there
// again.
func TestBeginAttemptReturnsNodesWhereTheyCameFrom(t *testing.T) {
	p, r := newTestPool()
	graced, inner := &node{leaf: true}, &node{}
	removeAndSettle(p, graced, inner)
	r.expire(p)
	want := [numLists]int{1, 1}
	if got := p.lens(); got != want {
		t.Fatalf("setup: lists %v, want %v", got, want)
	}

	for attempt := 0; attempt < 3; attempt++ {
		p.BeginAttempt()
		if got := p.lens(); got != want {
			t.Fatalf("attempt %d: lists %v after BeginAttempt, want %v", attempt, got, want)
		}
		p.Remove(&node{leaf: true}) // a failed attempt's removals are forgotten
		if n := p.Take(true); n != graced {
			t.Fatalf("attempt %d: leaf-list leaf came back as %p", attempt, n)
		}
		if n := p.Take(false); n != inner {
			t.Fatalf("attempt %d: inner-list node came back as %p", attempt, n)
		}
	}
	// Fresh nodes of a failed attempt: nobody ever saw them.
	p.Take(true)
	p.Take(false)
	p.BeginAttempt()
	if got, want := p.lens(), [numLists]int{2, 2}; got != want {
		t.Fatalf("lists %v after a failed attempt drew two fresh nodes, want %v", got, want)
	}
	p.Settle()
	if len(r.limbo) != 0 || p.Stats().Retired != 2 {
		t.Fatalf("a failed attempt's removal was retired: limbo %v, stats %+v", r.limbo, p.Stats())
	}
}

// TestPooledIsPublishedEverySoManySettles: Pooled reads what the owner
// published at its last publishEvery-th Settle, from any goroutine.
func TestPooledIsPublishedEverySoManySettles(t *testing.T) {
	p, r := newTestPool()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Pooled()
			}
		}
	}()
	for settles := 0; settles < publishEvery-1; settles++ {
		removeAndSettle(p, &node{leaf: true}, &node{})
		if settles%2 == 0 {
			r.expire(p)
		}
	}
	if lf, in := p.Pooled(); lf+in != 0 {
		t.Fatalf("Pooled = %d/%d before the first publication", lf, in)
	}
	removeAndSettle(p)
	lens := p.lens()
	if lf, in := p.Pooled(); [numLists]int{lf, in} != lens || p.Size() != lf+in {
		t.Fatalf("Pooled = %d/%d at the publication, lists %v", lf, in, lens)
	}
	close(stop)
	wg.Wait()
}

// TestListsAreBounded: a backlog far beyond what circulates in steady
// state — a stall's worth of retirees arriving at once — fills each list
// to maxPooled and no further; the rest is left to the garbage collector.
func TestListsAreBounded(t *testing.T) {
	p, r := newTestPool()
	for i := 0; i < 2*maxPooled; i++ {
		removeAndSettle(p, &node{leaf: true}, &node{})
	}
	r.expire(p)
	if got, want := p.lens(), [numLists]int{maxPooled, maxPooled}; got != want {
		t.Fatalf("lists %v after a backlog of %d nodes each, want %v", got, 2*maxPooled, want)
	}
	if st := p.Stats(); st.Freed != 4*maxPooled {
		t.Fatalf("Freed = %d, want every returning node counted (%d)", st.Freed, 4*maxPooled)
	}
}
