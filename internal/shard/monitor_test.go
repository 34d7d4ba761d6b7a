package shard

import (
	"testing"
	"time"

	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/engine"
	"htmtree/internal/fault"
	"htmtree/internal/htm"
)

// TestMonitorBracket verifies the bracket: samples fail while an update
// is between Enter and Exit, a sample taken before it fails validation
// afterwards, and an admission retracted at a closed gate leaves a
// sample taken under the gate valid.
func TestMonitorBracket(t *testing.T) {
	t.Parallel()
	var mon monitor
	s, ok := mon.Sample()
	if !ok {
		t.Fatal("idle monitor reported an update in flight")
	}
	mon.Enter()
	if _, ok := mon.Sample(); ok {
		t.Fatal("Sample succeeded while a bracketed update was in flight")
	}
	mon.Exit()
	if _, ok := mon.Sample(); !ok {
		t.Fatal("Sample failed after the bracketed update completed")
	}
	if mon.Validate(s) {
		t.Fatal("pre-bracket sample validated across the bracketed update")
	}

	release := mon.Quiesce()
	s, ok = mon.Sample()
	if !ok {
		t.Fatal("quiesced monitor reported an update in flight")
	}
	admitted := make(chan struct{})
	go func() {
		mon.Enter() // retracts its increment, then waits at the gate
		close(admitted)
	}()
	time.Sleep(20 * time.Millisecond)
	if !mon.Validate(s) {
		t.Fatal("an admission held at the gate invalidated the sample")
	}
	release()
	<-admitted
	mon.Exit()
	if mon.Validate(s) {
		t.Fatal("the admitted update did not invalidate the sample")
	}
}

// TestMonitorQuiesceWaitsOutBracketedUpdate verifies the gate's two
// halves: Quiesce does not return while an update is in flight, and
// while the gate is held an update's admission (Enter) waits until
// release.
func TestMonitorQuiesceWaitsOutBracketedUpdate(t *testing.T) {
	t.Parallel()
	var mon monitor
	mon.Enter() // an update, mid-flight

	quiesced := make(chan func())
	go func() { quiesced <- mon.Quiesce() }()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while a bracketed update was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	mon.Exit()
	var release func()
	select {
	case release = <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never returned after the update completed")
	}

	admitted := make(chan struct{})
	go func() {
		mon.Enter()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("Enter admitted an update through a held gate")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Enter never returned after the gate was released")
	}
	if got := mon.quiesces.Load(); got != 1 {
		t.Fatalf("quiesces = %d, want 1", got)
	}
}

// probedDict wraps an inner dictionary so that every update through its
// handles runs probe as its first and its last step, inside the call
// the shard handle makes.
type probedDict struct {
	dict.Dict
	probe func()
}

func (p probedDict) NewHandle() dict.Handle { return probedHandle{p.Dict.NewHandle(), p.probe} }

type probedHandle struct {
	dict.Handle
	probe func()
}

func (h probedHandle) Insert(key, val uint64) (uint64, bool) {
	h.probe()
	defer h.probe()
	return h.Handle.Insert(key, val)
}

func (h probedHandle) Delete(key uint64) (uint64, bool) {
	h.probe()
	defer h.probe()
	return h.Handle.Delete(key)
}

// TestMonitorPublishesUpdateCommits verifies, for every algorithm, that
// an update through a monitored handle is in flight for its whole inner
// call — probes at the start and the end of the inner call, and one at
// the fallback-owner seam inside the engine's software path, must find
// the shard's monitor busy — with the transactional paths idle and with
// every transactional access aborting for capacity, which sends the
// update to its software path. The completed update, and a batch group,
// invalidate a sample taken before them; a Search does not; and a
// quiescent monitor validates.
func TestMonitorPublishesUpdateCommits(t *testing.T) {
	t.Parallel()
	for _, alg := range engine.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			for _, capacity := range []bool{false, true} {
				var d *Dict
				var probes, unpublished, fallbackProbes int
				probe := func() {
					probes++
					if _, ok := d.mons[0].Sample(); ok {
						unpublished++
					}
				}
				plan := fault.New(1, fault.Rule{Point: fault.PointFallbackOwner,
					Func: func() { fallbackProbes++; probe() }})
				if capacity {
					plan = plan.With(fault.Rule{Point: fault.PointTxAccess, Every: 1,
						Cause: uint8(htm.CauseCapacity)})
				}
				var err error
				d, err = New(Config{Shards: 1, Atomic: true, New: func(int) dict.Dict {
					return probedDict{bst.New(bst.Config{Algorithm: alg,
						HTM: htm.Config{Faults: plan}, Engine: engine.Config{Faults: plan}}), probe}
				}})
				if err != nil {
					t.Fatal(err)
				}
				h := d.NewHandle()
				mon := d.mons[0]

				s, ok := mon.Sample()
				if !ok || !mon.Validate(s) {
					t.Fatalf("capacity=%v: idle monitor not stable", capacity)
				}
				h.Insert(5, 1)
				h.Delete(5)
				h.(dict.GroupExecutor).ExecGroup([]dict.BatchOp{
					{Kind: dict.OpInsert, Key: 6, Val: 1}, {Kind: dict.OpInsert, Key: 7, Val: 1}})
				if probes == 0 || unpublished != 0 {
					t.Errorf("capacity=%v: %d of %d probes inside updates found none in flight",
						capacity, unpublished, probes)
				}
				if capacity && fallbackProbes == 0 {
					t.Errorf("capacity=%v: no update reached the software path", capacity)
				}
				if mon.Validate(s) {
					t.Errorf("capacity=%v: updates did not invalidate the sample", capacity)
				}
				if got := mon.nin.Load() - s.in; got != 3 {
					t.Errorf("capacity=%v: two updates and a one-segment group opened %d brackets, want 3",
						capacity, got)
				}

				s2, ok := mon.Sample()
				if !ok {
					t.Fatalf("capacity=%v: monitor busy after the updates completed", capacity)
				}
				if v, found := h.Search(6); !found || v != 1 {
					t.Errorf("capacity=%v: Search(6) = (%d,%v) after the group", capacity, v, found)
				}
				if !mon.Validate(s2) {
					t.Errorf("capacity=%v: a Search invalidated the sample", capacity)
				}
			}
		})
	}
}

// panickyDict's handles panic out of the update of key 13.
type panickyDict struct{ dict.Dict }

func (p panickyDict) NewHandle() dict.Handle { return panickyHandle{p.Dict.NewHandle()} }

type panickyHandle struct{ dict.Handle }

func (h panickyHandle) Insert(key, val uint64) (uint64, bool) {
	if key == 13 {
		panic("update-boom")
	}
	return h.Handle.Insert(key, val)
}

// TestMonitoredUpdatePanicLeavesReadsLive: a panic out of a monitored
// update's inner call must close its bracket, or every later sample of
// the shard fails and every escalated read waits forever for the update
// to drain. After the recovered panic, a KeySum validates, and a read
// whose optimistic attempts all fail escalates, closes both gates and
// completes.
func TestMonitoredUpdatePanicLeavesReadsLive(t *testing.T) {
	t.Parallel()
	d, err := New(Config{Shards: 2, KeySpan: 100, Atomic: true, New: func(int) dict.Dict {
		return panickyDict{bst.New(bst.Config{Algorithm: engine.AlgTLE})}
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := d.NewHandle()
	h.Insert(10, 1)
	func() {
		defer func() {
			if r := recover(); r != "update-boom" {
				t.Fatalf("recovered %v, want update-boom", r)
			}
		}()
		h.Insert(13, 1)
	}()
	if sum, count := d.KeySum(); sum != 10 || count != 1 {
		t.Errorf("KeySum = (%d,%d), want (10,1)", sum, count)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.readConsistent(0, 1, func() bool { return false }, func() {})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("escalated read still waiting for the panicked update to drain")
	}
	if st := d.RQStats(); st.Escalations != 1 || st.Quiesces != 2 {
		t.Errorf("RQStats = %+v, want one escalation closing two gates", st)
	}
}

// TestQuiescedShardStandsStill: the quiesce is exact. While a reader
// holds a shard's gate and updaters churn through handles — on that
// shard and on its neighbour — the held shard's content (KeySum) does
// not move: no update is admitted there. The neighbour's content does
// move, and so does the held shard's once the gate opens.
func TestQuiescedShardStandsStill(t *testing.T) {
	t.Parallel()
	const width = 1 << 10
	d := monitoredBST(t, Config{Shards: 2, KeySpan: 2 * width}, engine.AlgNonHTM)
	h := d.NewHandle()
	for k := uint64(1); k < 2*width; k += 7 {
		h.Insert(k, k)
	}
	sum0, _ := d.shards[0].KeySum()
	sum1, _ := d.shards[1].KeySum()

	release := d.mons[0].Quiesce()
	stop := make(chan struct{})
	churned := make(chan int)
	for w := 0; w < 2; w++ {
		go func(w int) {
			uh := d.NewHandle()
			n := 0
			// A round comes before every look at stop, so the held
			// shard's updater makes one even if it is first scheduled
			// after the release.
			for i := uint64(0); ; i++ {
				k := uint64(w)*width + 2 + 7*(i%100) // shard w's keys, none of them present
				uh.Insert(k, i)
				uh.Delete(k)
				uh.Insert(k+1, i) // left behind: moves the sum
				n++
				select {
				case <-stop:
					churned <- n
					return
				default:
				}
			}
		}(w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := d.shards[1].KeySum(); s != sum1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	held0, _ := d.shards[0].KeySum()
	moved1, _ := d.shards[1].KeySum()
	release()
	close(stop)
	n0, n1 := <-churned, <-churned
	after0, _ := d.shards[0].KeySum()

	if held0 != sum0 {
		t.Errorf("held shard moved under its gate: KeySum %d -> %d", sum0, held0)
	}
	if moved1 == sum1 {
		t.Error("the neighbour's updaters made no progress while the other shard was held")
	}
	if n0+n1 == 0 || after0 == sum0 {
		t.Errorf("after release: %d+%d churn rounds, held shard's KeySum %d -> %d; want it moved",
			n0, n1, sum0, after0)
	}
}
