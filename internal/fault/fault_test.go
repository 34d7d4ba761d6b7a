package fault

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilPlanDisabled: every entry point is a no-op on a nil plan.
func TestNilPlanDisabled(t *testing.T) {
	var p *Plan
	if _, ok := p.At(PointTxAccess); ok {
		t.Fatal("nil plan fired")
	}
	p.Hit(PointFallbackOwner)
	p.Exec(Effect{Kill: true}) // must not park
	p.ReleaseKilled()
	if p.Hits(PointTxAccess) != 0 || p.Fires(PointTxAccess) != 0 {
		t.Fatal("nil plan counted")
	}
	if p.String() != "fault.Plan(nil)" {
		t.Fatalf("nil plan String = %q", p.String())
	}
}

// TestEveryTrigger: every=3 after=2 count=2 fires on encounters 5 and 8
// and never again.
func TestEveryTrigger(t *testing.T) {
	p := New(1, Rule{Point: PointTxAccess, Every: 3, After: 2, Count: 2})
	var fired []int
	for i := 1; i <= 20; i++ {
		if _, ok := p.At(PointTxAccess); ok {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 8 {
		t.Fatalf("fired at %v, want [5 8]", fired)
	}
	if p.Hits(PointTxAccess) != 20 || p.Fires(PointTxAccess) != 2 {
		t.Fatalf("hits=%d fires=%d", p.Hits(PointTxAccess), p.Fires(PointTxAccess))
	}
	// A point with no rule never fires and doesn't count.
	if _, ok := p.At(PointEBRPin); ok {
		t.Fatal("unarmed point fired")
	}
}

// TestProbTriggerDeterministic: the same (seed, encounter index) always
// makes the same decision, and the empirical rate is near Prob.
func TestProbTriggerDeterministic(t *testing.T) {
	const n = 100000
	run := func() []bool {
		p := New(42, Rule{Point: PointTxAccess, Prob: 0.25})
		out := make([]bool, n)
		for i := range out {
			_, out[i] = p.At(PointTxAccess)
		}
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical plans", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits < n/5 || hits > n/3 {
		t.Fatalf("prob=0.25 fired %d/%d times", hits, n)
	}
	// A different seed makes different decisions.
	p2 := New(43, Rule{Point: PointTxAccess, Prob: 0.25})
	same := 0
	for i := 0; i < 1000; i++ {
		if _, ok := p2.At(PointTxAccess); ok == a[i] {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seed change did not change decisions")
	}
}

// TestEffectFields: cause/stall/kill/func flow from rule to effect.
func TestEffectFields(t *testing.T) {
	called := false
	p := New(7, Rule{
		Point: PointTxAccess, Every: 1, Cause: 3,
		Stall: time.Millisecond, Func: func() { called = true },
	})
	eff, ok := p.At(PointTxAccess)
	if !ok || eff.Cause != 3 || eff.Stall != time.Millisecond || eff.Kill || eff.Seq != 1 {
		t.Fatalf("effect %+v", eff)
	}
	p.Exec(eff)
	if !called {
		t.Fatal("Func effect not run")
	}
}

// TestOnFireHook: the recorder bridge sees every fire with its seq.
func TestOnFireHook(t *testing.T) {
	p := New(1, Rule{Point: PointQuiesce, Every: 2})
	var seen []uint64
	p.SetOnFire(func(e Effect) {
		if e.Point != PointQuiesce {
			t.Errorf("onFire point %v", e.Point)
		}
		seen = append(seen, e.Seq)
	})
	for i := 0; i < 6; i++ {
		p.Hit(PointQuiesce)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("onFire seqs %v", seen)
	}
}

// TestKillParksUntilRelease: a kill effect parks the goroutine; only
// ReleaseKilled resumes it.
func TestKillParksUntilRelease(t *testing.T) {
	p := New(1, Rule{Point: PointFallbackOwner, Every: 1, Kill: true})
	done := make(chan struct{})
	go func() {
		p.Hit(PointFallbackOwner)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("killed goroutine returned before release")
	case <-time.After(20 * time.Millisecond):
	}
	p.ReleaseKilled()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("killed goroutine did not resume after release")
	}
	p.ReleaseKilled() // idempotent
}

// TestWith: extension preserves the base rules with fresh counters and
// composes Func on the same point.
func TestWith(t *testing.T) {
	base := New(5, Rule{Point: PointTxAccess, Every: 2})
	base.Hit(PointTxAccess)
	calls := 0
	np := base.With(Rule{Point: PointFallbackOwner, Func: func() { calls++ }})
	if np.Hits(PointTxAccess) != 0 {
		t.Fatal("With inherited counters")
	}
	if _, ok := np.At(PointTxAccess); ok {
		t.Fatal("every=2 fired on first encounter")
	}
	if _, ok := np.At(PointTxAccess); !ok {
		t.Fatal("every=2 did not fire on second encounter")
	}
	np.Hit(PointFallbackOwner)
	np.Hit(PointFallbackOwner)
	if calls != 2 {
		t.Fatalf("bare Func rule fired %d times, want every encounter", calls)
	}
	// nil receiver compiles a fresh plan.
	var nilp *Plan
	np2 := nilp.With(Rule{Point: PointFallbackOwner, Func: func() {}})
	if np2 == nil {
		t.Fatal("nil.With returned nil")
	}
}

// TestComposedRules: two rules on one point chain their callbacks under
// the first rule's trigger.
func TestComposedRules(t *testing.T) {
	var order []int
	p := New(1,
		Rule{Point: PointBatchFlush, Every: 2, Func: func() { order = append(order, 1) }},
		Rule{Point: PointBatchFlush, Func: func() { order = append(order, 2) }},
	)
	p.Hit(PointBatchFlush)
	p.Hit(PointBatchFlush)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("composed order %v", order)
	}
}

// TestLivenessWindows: watched stalls bracket windows; Check flags a
// zero-progress window; Finish closes kill windows.
func TestLivenessWindows(t *testing.T) {
	lv := &Liveness{}
	p := New(1, Rule{Point: PointFallbackOwner, Every: 1, Stall: time.Millisecond, Watch: true}).Watch(lv)

	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() { // background progress while the victim stalls
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				lv.OpDone()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	p.Hit(PointFallbackOwner)
	close(stop)
	wg.Wait()

	lv.Finish()
	ws := lv.Windows()
	if len(ws) != 1 || ws[0].Kill || ws[0].Point != PointFallbackOwner {
		t.Fatalf("windows %+v", ws)
	}
	if ws[0].Progress() == 0 {
		t.Fatal("no progress observed during stall")
	}
	if err := lv.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if min, ok := lv.MinProgress(); !ok || min == 0 {
		t.Fatalf("MinProgress = %d, %v", min, ok)
	}

	// A kill window with zero progress fails Check after Finish.
	lv2 := &Liveness{}
	p2 := New(1, Rule{Point: PointFallbackOwner, Every: 1, Kill: true, Watch: true}).Watch(lv2)
	defer p2.ReleaseKilled()
	started := make(chan struct{})
	go func() {
		close(started)
		p2.Hit(PointFallbackOwner)
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let it park and open the window
	lv2.Finish()
	if err := lv2.Check(); err == nil {
		t.Fatal("Check accepted a zero-progress kill window")
	}
}

// TestPlanString: the reproduction dump names seed and every rule.
func TestPlanString(t *testing.T) {
	p := New(0xbeef,
		Rule{Point: PointFallbackOwner, Every: 16, Count: 4, Kill: true, Watch: true},
		Rule{Point: PointTxAccess, Prob: 0.125, Cause: 2},
	)
	s := p.String()
	for _, want := range []string{"seed=0xbeef", "fallback-owner", "every=16", "count=4", "kill", "tx-access", "prob=0.125", "cause=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

// TestPointNames: wire names are stable and unique.
func TestPointNames(t *testing.T) {
	seen := map[string]bool{}
	for pt := Point(1); pt < NumPoints; pt++ {
		n := pt.String()
		if n == "" || seen[n] {
			t.Fatalf("point %d name %q duplicate or empty", pt, n)
		}
		seen[n] = true
	}
}

// BenchmarkNilPlanAt measures the disabled fast path (and its zero
// allocations — the property the alloc gates depend on).
func BenchmarkNilPlanAt(b *testing.B) {
	var p *Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.At(PointTxAccess); ok {
			b.Fatal("fired")
		}
	}
}

// BenchmarkArmedPlanMiss measures an armed plan on encounters that do
// not fire (the common case in an abort-storm run) — still 0 allocs.
func BenchmarkArmedPlanMiss(b *testing.B) {
	p := New(9, Rule{Point: PointTxAccess, Prob: 1e-12})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.At(PointTxAccess); ok {
			b.Fatal("fired")
		}
	}
}
