package nodepool

import (
	"sync"
	"testing"

	"htmtree/internal/htm"
)

type node struct{ leaf bool }

// fakeRetirer allows immediate reuse on the fast path only, and holds
// grace-period retirees until the test lets the grace period expire.
type fakeRetirer struct {
	limbo []any
}

func (r *fakeRetirer) Immediate(p htm.PathKind) bool { return p == htm.PathFast }
func (r *fakeRetirer) Retire(x any)                  { r.limbo = append(r.limbo, x) }

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
	return [numLists]int{len(p.free[listImmediate]), len(p.free[listGrace]), len(p.free[listInner])}
}

// removeAndSettle runs one operation that unlinks the given nodes and
// completes on path.
func removeAndSettle(p *Pool[node], path htm.PathKind, nodes ...*node) {
	p.BeginAttempt()
	for _, n := range nodes {
		p.Remove(n)
	}
	p.Settle(path)
}

// TestSettleRoutesByPathAndKind: a leaf removed by a fast-path commit
// goes straight onto the immediate list; a leaf removed on any other
// path, and an internal node removed on any path at all, goes through
// Retire and reaches its list — grace, inner — only when the grace period
// expires. Size counts all three lists.
func TestSettleRoutesByPathAndKind(t *testing.T) {
	p, r := newTestPool()
	fastLeaf, fastInner := &node{leaf: true}, &node{}
	removeAndSettle(p, htm.PathFast, fastLeaf, fastInner)
	if got, want := p.lens(), [numLists]int{1, 0, 0}; got != want {
		t.Fatalf("after a fast-path settle: lists %v, want %v (leaf immediate, inner in limbo)", got, want)
	}
	if len(r.limbo) != 1 || r.limbo[0] != any(fastInner) {
		t.Fatalf("limbo holds %v, want the internal node", r.limbo)
	}
	for _, path := range []htm.PathKind{htm.PathMiddle, htm.PathFallback} {
		removeAndSettle(p, path, &node{leaf: true}, &node{})
	}
	if got, want := p.lens(), [numLists]int{1, 0, 0}; got != want {
		t.Fatalf("middle- and fallback-path settles pooled nodes before their grace period: lists %v, want %v", got, want)
	}
	if len(r.limbo) != 5 {
		t.Fatalf("limbo holds %d nodes, want 5", len(r.limbo))
	}
	if st := p.Stats(); st.RetiredFast != 1 || st.RetiredGrace != 5 || st.Freed != 1 {
		t.Fatalf("stats %+v, want 1 immediate, 5 grace, 1 freed", st)
	}
	r.expire(p)
	if got, want := p.lens(), [numLists]int{1, 2, 3}; got != want {
		t.Fatalf("after the grace period: lists %v, want %v", got, want)
	}
	if p.Size() != 6 || p.Stats().Freed != 6 {
		t.Fatalf("Size = %d, Freed = %d, want 6 and 6", p.Size(), p.Stats().Freed)
	}
}

// TestTakePrefersGraceReleasedLeaves: a leaf nobody can hold is cheaper
// to reuse than one a stale reader may, so Take hands out the grace list
// first, then the immediate list — and says which kind it handed out —
// then the heap.
func TestTakePrefersGraceReleasedLeaves(t *testing.T) {
	p, r := newTestPool()
	immediate, graced := &node{leaf: true}, &node{leaf: true}
	removeAndSettle(p, htm.PathFast, immediate)
	removeAndSettle(p, htm.PathMiddle, graced)
	r.expire(p)

	p.BeginAttempt()
	if n, stale := p.Take(true); n != graced || stale {
		t.Fatalf("first Take = (%p, stale %v), want the grace-released leaf %p, not stale", n, stale, graced)
	}
	if n, stale := p.Take(true); n != immediate || !stale {
		t.Fatalf("second Take = (%p, stale %v), want the immediately retired leaf %p, stale", n, stale, immediate)
	}
	if n, stale := p.Take(true); n == nil || n == graced || n == immediate || stale {
		t.Fatalf("third Take = (%p, stale %v), want a fresh leaf", n, stale)
	}
	if n, stale := p.Take(false); n == nil || n.leaf || stale {
		t.Fatalf("Take(inner) = (%+v, stale %v), want a fresh internal node", n, stale)
	}
	if st := p.Stats(); st.Reused != 2 || st.Fresh != 2 {
		t.Fatalf("stats %+v, want 2 reused, 2 fresh", st)
	}
	p.Settle(htm.PathMiddle) // published: nothing returns
	if p.Size() != 0 {
		t.Fatalf("Size = %d after the drawn nodes were published, want 0", p.Size())
	}
}

// TestBeginAttemptReturnsNodesWhereTheyCameFrom: an attempt that failed
// published nothing, so whoever could hold one of its nodes before still
// can and nobody new: each goes back to the list it was drawn from (a
// fresh one to the list of its kind that nobody can hold), and is drawn
// from there again.
func TestBeginAttemptReturnsNodesWhereTheyCameFrom(t *testing.T) {
	p, r := newTestPool()
	immediate, graced, inner := &node{leaf: true}, &node{leaf: true}, &node{}
	removeAndSettle(p, htm.PathFast, immediate)
	removeAndSettle(p, htm.PathFallback, graced, inner)
	r.expire(p)
	want := [numLists]int{1, 1, 1}
	if got := p.lens(); got != want {
		t.Fatalf("setup: lists %v, want %v", got, want)
	}

	for attempt := 0; attempt < 3; attempt++ {
		p.BeginAttempt()
		if got := p.lens(); got != want {
			t.Fatalf("attempt %d: lists %v after BeginAttempt, want %v", attempt, got, want)
		}
		p.Remove(&node{leaf: true}) // a failed attempt's removals are forgotten
		if n, stale := p.Take(true); n != graced || stale {
			t.Fatalf("attempt %d: grace-list leaf came back as (%p, stale %v)", attempt, n, stale)
		}
		if n, stale := p.Take(true); n != immediate || !stale {
			t.Fatalf("attempt %d: immediate-list leaf came back as (%p, stale %v)", attempt, n, stale)
		}
		if n, _ := p.Take(false); n != inner {
			t.Fatalf("attempt %d: inner-list node came back as %p", attempt, n)
		}
	}
	// Fresh nodes of a failed attempt: nobody ever saw them.
	p.Take(true)
	p.Take(false)
	p.BeginAttempt()
	if got, want := p.lens(), [numLists]int{1, 2, 2}; got != want {
		t.Fatalf("lists %v after a failed attempt drew two fresh nodes, want %v", got, want)
	}
	p.Settle(htm.PathFast)
	if len(r.limbo) != 0 || p.Stats().RetiredFast != 1 {
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
		if settles%2 == 0 {
			removeAndSettle(p, htm.PathFast, &node{leaf: true})
		} else {
			removeAndSettle(p, htm.PathMiddle, &node{leaf: true}, &node{})
			r.expire(p)
		}
	}
	if im, gr, in := p.Pooled(); im+gr+in != 0 {
		t.Fatalf("Pooled = %d/%d/%d before the first publication", im, gr, in)
	}
	removeAndSettle(p, htm.PathFast)
	lens := p.lens()
	if im, gr, in := p.Pooled(); [numLists]int{im, gr, in} != lens || p.Size() != im+gr+in {
		t.Fatalf("Pooled = %d/%d/%d at the publication, lists %v", im, gr, in, lens)
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
		removeAndSettle(p, htm.PathFast, &node{leaf: true})
		removeAndSettle(p, htm.PathMiddle, &node{leaf: true}, &node{})
	}
	r.expire(p)
	if got, want := p.lens(), [numLists]int{maxPooled, maxPooled, maxPooled}; got != want {
		t.Fatalf("lists %v after a backlog of %d nodes each, want %v", got, 2*maxPooled, want)
	}
	if st := p.Stats(); st.Freed != 6*maxPooled {
		t.Fatalf("Freed = %d, want every returning node counted (%d)", st.Freed, 6*maxPooled)
	}
}
