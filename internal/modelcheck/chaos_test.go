package modelcheck

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/htm"
	"htmtree/internal/shard"
)

// The chaos battery: every fault family the injection plane supports,
// run against lockstep sequential models under the race detector.
//
// Each worker owns a disjoint contiguous key range and drives its own
// model, so op-for-op agreement is sound under full concurrency (the
// shared trees, fallback-presence indicators, shard boundaries and
// fallback paths stay contended); the injected faults must change
// scheduling, never results.

// chaosLockstep drives `threads` workers in lockstep with per-thread
// models over disjoint ranges [ti*perThread+1, (ti+1)*perThread], then
// validates the final key-sum and invariants. Each completed operation
// is reported to lv (nil ok).
func chaosLockstep(t *testing.T, tree *htmtree.Tree, lv *htmtree.FaultLiveness, threads, perThread, numOps int, seed int64) {
	t.Helper()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		wantSum uint64
		wantCnt uint64
	)
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			h := tree.NewHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(seed + int64(ti)))
			base := uint64(ti*perThread) + 1
			for i := 0; i < numOps; i++ {
				k := base + uint64(rng.Intn(perThread))
				switch rng.Intn(8) {
				case 0, 1, 2:
					v := uint64(rng.Intn(1 << 30))
					old, existed := h.Insert(k, v)
					wantOld, wantEx := model.Insert(k, v)
					if existed != wantEx || (existed && old != wantOld) {
						t.Errorf("thread %d op %d Insert(%d,%d) = (%d,%v), model (%d,%v)",
							ti, i, k, v, old, existed, wantOld, wantEx)
						return
					}
				case 3, 4:
					old, existed := h.Delete(k)
					wantOld, wantEx := model.Delete(k)
					if existed != wantEx || (existed && old != wantOld) {
						t.Errorf("thread %d op %d Delete(%d) = (%d,%v), model (%d,%v)",
							ti, i, k, old, existed, wantOld, wantEx)
						return
					}
				case 5, 6:
					got, found := h.Search(k)
					want, ok := model.Search(k)
					if found != ok || (found && got != want) {
						t.Errorf("thread %d op %d Search(%d) = (%d,%v), model (%d,%v)",
							ti, i, k, got, found, want, ok)
						return
					}
				case 7:
					lo := base + uint64(rng.Intn(perThread))
					hi := lo + uint64(rng.Intn(perThread))
					if end := base + uint64(perThread); hi > end {
						hi = end
					}
					out := h.RangeQuery(lo, hi, nil)
					wantKeys, wantVals := model.RangeQuery(lo, hi)
					if len(out) != len(wantKeys) {
						t.Errorf("thread %d op %d RQ[%d,%d): %d pairs, model %d",
							ti, i, lo, hi, len(out), len(wantKeys))
						return
					}
					for j, kv := range out {
						if kv.Key != wantKeys[j] || kv.Val != wantVals[j] {
							t.Errorf("thread %d op %d RQ[%d,%d)[%d] = (%d,%d), model (%d,%d)",
								ti, i, lo, hi, j, kv.Key, kv.Val, wantKeys[j], wantVals[j])
							return
						}
					}
				}
				lv.OpDone()
			}
			sum, count := model.KeySum()
			mu.Lock()
			wantSum += sum
			wantCnt += count
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sum, count := tree.KeySum()
	if sum != wantSum || count != wantCnt {
		t.Fatalf("KeySum = (%d,%d), models (%d,%d)", sum, count, wantSum, wantCnt)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// chaosOps scales the per-thread operation count down under -short.
func chaosOps(full int) int {
	if testing.Short() {
		return full / 3
	}
	return full
}

// TestChaosOwnerDeathDifferential is the acceptance battery for
// permanent owner death on 3-path: under a capacity storm every update
// reaches the fallback path, and a fault plan kills the owner on every
// 3rd fallback entry (four times), right after it arrived on F and
// before it did anything, so four of six workers die with F held
// forever. The test proves:
//
//   - no effect from the dead: every worker's logged intents, replayed
//     through a sequential model without the dead workers' last,
//     unreturned one, equal the tree's final state key for key;
//   - progress: the two survivors finish their full bounded workload
//     (a wedge would time the join out), the liveness watchdog sees
//     operations complete inside every kill window, and updates
//     completed while a dead owner held F.
//
// Intents are logged before each operation starts, so a dead worker's
// log holds exactly one operation more than it completed.
func TestChaosOwnerDeathDifferential(t *testing.T) {
	const (
		workers   = 6
		perThread = 96
		kEvery    = 3
		kCount    = 4
	)
	numOps := chaosOps(360)
	for _, structure := range []string{"bst", "abtree"} {
		t.Run(structure, func(t *testing.T) {
			// Every transactional access aborts by capacity, which ends
			// the fast and middle paths' attempts at once: every update
			// enters the fallback path, so the kill budget is spent on
			// the first dozen updates — before the tree holds enough keys
			// for an (a,b)-tree fix step, whose own fallback entries pass
			// the same seam.
			plan := txAborts(1, htm.CauseCapacity, htmtree.FaultRule{
				Point: htmtree.FaultFallbackOwner,
				Every: kEvery,
				Kill:  true,
				Count: kCount,
				Watch: true,
			})
			lv := &htmtree.FaultLiveness{}
			plan.Watch(lv)
			cfg := htmtree.Config{Algorithm: htmtree.ThreePath, Faults: plan}
			var (
				tree *htmtree.Tree
				err  error
			)
			if structure == "bst" {
				tree, err = htmtree.NewBST(cfg)
			} else {
				tree, err = htmtree.NewABTree(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			type intent struct {
				insert   bool
				key, val uint64
			}
			type workerState struct {
				mu        sync.Mutex
				intents   []intent
				completed int
			}
			states := make([]*workerState, workers)
			done := make([]chan struct{}, workers)
			var halt atomic.Bool
			// pastDead counts updates that completed after a kill fired:
			// the victim had arrived on F before the seam, so F was held
			// by a dead owner throughout.
			var pastDead atomic.Uint64

			for w := 0; w < workers; w++ {
				states[w] = &workerState{}
				done[w] = make(chan struct{})
				go func(w int) {
					defer close(done[w])
					ws := states[w]
					h := tree.NewHandle()
					model := NewModel()
					rng := rand.New(rand.NewSource(int64(0xfeed + w)))
					base := uint64(w*perThread) + 1
					for i := 0; i < numOps; i++ {
						if halt.Load() {
							return
						}
						in := intent{rng.Intn(2) == 0, base + uint64(rng.Intn(perThread)), uint64(rng.Intn(1 << 30))}
						ws.mu.Lock()
						ws.intents = append(ws.intents, in)
						ws.mu.Unlock()
						var old, wantOld uint64
						var existed, wantEx bool
						if in.insert {
							old, existed = h.Insert(in.key, in.val)
						} else {
							old, existed = h.Delete(in.key)
						}
						if halt.Load() {
							return // released at teardown: no compares
						}
						if in.insert {
							wantOld, wantEx = model.Insert(in.key, in.val)
						} else {
							wantOld, wantEx = model.Delete(in.key)
						}
						if existed != wantEx || (existed && old != wantOld) {
							t.Errorf("worker %d op %d %+v = (%d,%v), model (%d,%v)",
								w, i, in, old, existed, wantOld, wantEx)
							return
						}
						lv.OpDone()
						if plan.Fires(htmtree.FaultFallbackOwner) > 0 {
							pastDead.Add(1)
						}
						ws.mu.Lock()
						ws.completed++
						ws.mu.Unlock()
					}
				}(w)
			}

			// Join: survivors finish their bounded workload; a worker
			// that does not is parked inside a kill and will never close
			// its channel. Poll rather than block — once the expected
			// survivor count is in and the kill budget is spent, a short
			// grace period settles any straggler, instead of burning a
			// full timeout on channels that cannot close.
			closed := make([]bool, workers)
			returned, grace := 0, 0
			for tick := 0; tick < 600 && returned < workers; tick++ {
				for w, ch := range done {
					if closed[w] {
						continue
					}
					select {
					case <-ch:
						closed[w] = true
						returned++
					default:
					}
				}
				if returned >= workers-kCount && plan.Fires(htmtree.FaultFallbackOwner) == kCount {
					if grace++; grace > 40 {
						break
					}
				} else {
					grace = 0
				}
				time.Sleep(50 * time.Millisecond)
			}
			// Teardown, on every way out: release the dead owners, which
			// then complete their operations, observe halt and exit; wait
			// for them so none outlives the test.
			defer func() {
				halt.Store(true)
				plan.ReleaseKilled()
				for w, ch := range done {
					select {
					case <-ch:
					case <-time.After(10 * time.Second):
						t.Errorf("worker %d did not exit after the dead owners' release", w)
					}
				}
			}()
			dead := make([]bool, workers)
			deadWorkers := 0
			for w, c := range closed {
				if !c {
					dead[w] = true
					deadWorkers++
					t.Logf("worker %d did not return (killed owner)", w)
				}
			}
			if t.Failed() {
				return
			}
			kills := plan.Fires(htmtree.FaultFallbackOwner)
			if kills != kCount {
				t.Errorf("kills fired = %d, want %d", kills, kCount)
			}
			if deadWorkers != int(kills) {
				t.Errorf("dead workers = %d, kills = %d (each kill must park exactly one owner)", deadWorkers, kills)
			}

			// Replay every worker's completed intents — a dead worker's
			// last one, logged but never executed, dropped — and compare
			// the tree key for key.
			hh := tree.NewHandle()
			var wantSum, wantCnt uint64
			for w, ws := range states {
				ws.mu.Lock()
				intents, completed := ws.intents, ws.completed
				ws.mu.Unlock()
				want := completed
				if dead[w] {
					want++
				}
				if len(intents) != want {
					t.Fatalf("worker %d (dead %v): %d intents, %d completed (log out of step)", w, dead[w], len(intents), completed)
				}
				replay := NewModel()
				for _, in := range intents[:completed] {
					if in.insert {
						replay.Insert(in.key, in.val)
					} else {
						replay.Delete(in.key)
					}
				}
				base := uint64(w*perThread) + 1
				for k := base; k < base+perThread; k++ {
					got, found := hh.Search(k)
					want, ok := replay.Search(k)
					if found != ok || (found && got != want) {
						t.Fatalf("worker %d range: tree[%d] = (%d,%v), replay (%d,%v)",
							w, k, got, found, want, ok)
					}
				}
				sum, cnt := replay.KeySum()
				wantSum += sum
				wantCnt += cnt
			}
			sum, cnt := tree.KeySum()
			if sum != wantSum || cnt != wantCnt {
				t.Errorf("KeySum = (%d,%d), replay (%d,%d)", sum, cnt, wantSum, wantCnt)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Error(err)
			}

			// Liveness: every kill window must have seen other threads
			// complete operations, and updates must have completed while a
			// dead owner held F.
			lv.Finish()
			if err := lv.Check(); err != nil {
				t.Error(err)
			}
			ws := lv.Windows()
			if uint64(len(ws)) != kills {
				t.Errorf("stall windows = %d, kills = %d", len(ws), kills)
			}
			for i, w := range ws {
				if !w.Kill {
					t.Errorf("window %d is not a kill window", i)
				}
				if w.Progress() == 0 {
					t.Errorf("kill window %d saw zero progress (system blocked on the dead owner)", i)
				}
			}
			if pastDead.Load() == 0 {
				t.Error("no update completed while a dead owner held F")
			}
			t.Logf("updates completed while a dead owner held F: %d", pastDead.Load())
		})
	}
}

// TestChaosAbortStormDifferential forces aborts by cause — spurious,
// conflict, capacity — with 5% probability per transactional access on
// sharded trees, and requires op-for-op model agreement: the retry
// policy's cause-specific reactions (free retries, backoff, path
// abandonment, fast-path demotion) must never change results.
func TestChaosAbortStormDifferential(t *testing.T) {
	const (
		threads   = 6
		perThread = 256
	)
	numOps := chaosOps(700)
	causes := []struct {
		name  string
		cause htm.AbortCause
	}{
		{"spurious", htm.CauseSpurious},
		{"conflict", htm.CauseConflict},
		{"capacity", htm.CauseCapacity},
	}
	for _, structure := range []string{"bst", "abtree"} {
		for _, c := range causes {
			t.Run(structure+"/"+c.name, func(t *testing.T) {
				plan := htmtree.NewFaultPlan(0x5707+uint64(c.cause), htmtree.FaultRule{
					Point: htmtree.FaultTxAccess,
					Prob:  0.05,
					Cause: uint8(c.cause),
				})
				cfg := htmtree.Config{
					Algorithm:    htmtree.ThreePath,
					Shards:       4,
					ShardKeySpan: uint64(threads * perThread),
					Faults:       plan,
				}
				var (
					tree *htmtree.Tree
					err  error
				)
				if structure == "bst" {
					tree, err = htmtree.NewShardedBST(cfg)
				} else {
					tree, err = htmtree.NewShardedABTree(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				chaosLockstep(t, tree, nil, threads, perThread, numOps, int64(0xab0+len(structure)))
				if plan.Fires(htmtree.FaultTxAccess) == 0 {
					t.Fatal("the storm never fired: the battery exercised nothing")
				}
			})
		}
	}
}

// TestChaosQuiesceStall stalls escalated cross-shard readers while they
// hold the quiesce gates of the shards they read. Every transactional
// access aborts by conflict, so every pinned attempt of a cross-shard
// RangeQuery fails: the reader spends its optimistic budget, escalates,
// and finishes gated with one plain read — with the plan stalling it
// right after it closed the gates. Updates (all on the fallback path:
// the same rule sends every update there) park at those gates for the
// stall. Lockstep agreement and the final key-sum prove the gated reads
// and the parked updates change no result; every worker finishing its
// workload proves no update stayed parked, and the watchdog's windows
// show operations completing after every stall. The quiesce is exact,
// so the read counters add up to exactly DefaultRQRetries failed
// attempts and one gated attempt per escalated read.
func TestChaosQuiesceStall(t *testing.T) {
	const (
		threads   = 6
		perThread = 128
	)
	numOps := chaosOps(300)
	plan := txAborts(1, htm.CauseConflict, htmtree.FaultRule{
		Point: htmtree.FaultQuiesce, Every: 1, Stall: 500 * time.Microsecond, Watch: true,
	})
	lv := &htmtree.FaultLiveness{}
	plan.Watch(lv)
	tree, err := htmtree.NewShardedBST(htmtree.Config{
		Algorithm: htmtree.ThreePath,
		Shards:    4,
		// Shard width 192 against 128-key worker ranges: workers 1 and 4
		// straddle a shard boundary, so their range queries fan out.
		ShardKeySpan:       threads * perThread,
		AtomicRangeQueries: true,
		Faults:             plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaosLockstep(t, tree, lv, threads, perThread, numOps, 0x9e1)
	if t.Failed() {
		return
	}
	rq := tree.Stats().Range
	fires, esc := plan.Fires(htmtree.FaultQuiesce), rq.Escalations
	if fires == 0 || esc == 0 {
		t.Fatalf("quiesce stalls fired %d times over %d escalated reads: the battery exercised nothing", fires, esc)
	}
	// The final key-sum, taken quiescent, validates on its first attempt:
	// it is the one attempt no escalation accounts for.
	const retries = shard.DefaultRQRetries
	if rq.Retries != esc*retries || rq.Attempts != esc*(retries+1)+1 {
		t.Errorf("cross-shard reads %+v: want %d retries and %d attempts — %d failed and one gated attempt per escalated read, plus the final key-sum",
			rq, esc*retries, esc*(retries+1)+1, retries)
	}
	ws := lv.Windows()
	if uint64(len(ws)) != fires {
		t.Errorf("stall windows = %d, stalls fired = %d", len(ws), fires)
	}
	for i, w := range ws {
		if w.OpsAfter >= lv.Ops() {
			t.Errorf("stall window %d: no operation completed after it closed", i)
		}
	}
	t.Logf("escalated reads=%d quiesceStalls=%d", esc, fires)
}

// TestChaosEBRPinStall stalls threads inside the epoch-pin
// announcement — the window reclamation scans race against — delaying
// grace periods behind live pins. Lockstep agreement and invariants
// prove delayed reclamation never recycles a node under a reader.
func TestChaosEBRPinStall(t *testing.T) {
	const (
		threads   = 4
		perThread = 256
	)
	numOps := chaosOps(900)
	plan := htmtree.NewFaultPlan(0xebc, htmtree.FaultRule{
		Point: htmtree.FaultEBRPin, Every: 128, Stall: 100 * time.Microsecond,
	})
	tree, err := htmtree.NewBST(htmtree.Config{
		Algorithm: htmtree.ThreePath,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaosLockstep(t, tree, nil, threads, perThread, numOps, 0xeb1)
	if !t.Failed() && plan.Fires(htmtree.FaultEBRPin) == 0 {
		t.Fatal("no pin stalled: the battery exercised nothing")
	}
}

// TestChaosFallbackRangeAgg runs aggregate queries beside updates with a
// spurious abort at one transactional access in eight, which sends most
// queries and some updates to the fallback path: each worker updates
// and queries its own key range, so every query must return exactly its
// worker's model, whichever path it and the updates beside it ran on —
// other workers' splits, joins and in-place edits of shared leaves
// included.
func TestChaosFallbackRangeAgg(t *testing.T) {
	const (
		threads   = 4
		perThread = 128
	)
	numOps := chaosOps(500)
	plan := txAborts(8, htm.CauseSpurious)
	tree, err := htmtree.NewABTree(htmtree.Config{
		Algorithm: htmtree.ThreePath,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var wantSum, wantCnt uint64
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			h := tree.NewHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(int64(0xa90 + ti)))
			base := uint64(ti*perThread) + 1
			for i := 0; i < numOps; i++ {
				k := base + uint64(rng.Intn(perThread))
				switch rng.Intn(6) {
				case 0, 1:
					v := uint64(rng.Intn(1 << 30))
					h.Insert(k, v)
					model.Insert(k, v)
				case 2, 3:
					h.Delete(k)
					model.Delete(k)
				default:
					// Aggregate query inside the worker's own range:
					// exact agreement required.
					lo := base + uint64(rng.Intn(perThread))
					hi := lo + uint64(rng.Intn(perThread))
					if end := base + uint64(perThread); hi > end {
						hi = end
					}
					got, err := h.RangeAgg(lo, hi)
					if err != nil {
						t.Errorf("thread %d RangeAgg: %v", ti, err)
						return
					}
					sum, cnt, min, max := model.RangeAgg(lo, hi)
					if got.Sum != sum || got.Count != cnt || got.Min != min || got.Max != max {
						t.Errorf("thread %d op %d RangeAgg[%d,%d) = %+v, model (sum=%d,count=%d,min=%d,max=%d)",
							ti, i, lo, hi, got, sum, cnt, min, max)
						return
					}
				}
			}
			sum, count := model.KeySum()
			mu.Lock()
			wantSum += sum
			wantCnt += count
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sum, count := tree.KeySum()
	if sum != wantSum || count != wantCnt {
		t.Fatalf("KeySum = (%d,%d), models (%d,%d)", sum, count, wantSum, wantCnt)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Stats().Ops.Fallback == 0 {
		t.Fatal("no operation ran on the fallback path: the battery exercised nothing")
	}
}

// TestChaosBatchFlushDelay stalls the asynchronous batching pipeline's
// flushes. Futures must still resolve with exactly the sequential
// results: workers enqueue rounds of distinct-key operations, flush,
// and compare every future against the model. The tree is sharded with
// atomic range queries, so every flush runs the shard layer's group
// executor — two shard segments per worker range, each admitted on its
// shard's monitor — concurrently with the other workers'.
func TestChaosBatchFlushDelay(t *testing.T) {
	const (
		threads   = 4
		perThread = 256
		batchSize = 8
	)
	rounds := chaosOps(90)
	plan := htmtree.NewFaultPlan(0xba7c, htmtree.FaultRule{
		Point: htmtree.FaultBatchFlush, Every: 4, Stall: 100 * time.Microsecond,
	})
	tree, err := htmtree.NewShardedBST(htmtree.Config{
		Algorithm:          htmtree.ThreePath,
		Shards:             2 * threads,
		ShardKeySpan:       threads * perThread,
		AtomicRangeQueries: true,
		BatchMaxOps:        batchSize,
		Faults:             plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var wantSum, wantCnt uint64
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			ah := tree.NewAsyncHandle()
			model := NewModel()
			rng := rand.New(rand.NewSource(int64(0xba0 + ti)))
			base := uint64(ti*perThread) + 1
			type pending struct {
				fut    htmtree.PointFuture
				ins    bool
				wantV  uint64
				wantOK bool
			}
			for r := 0; r < rounds; r++ {
				// Distinct keys within a round: the group executor may
				// reorder a batch, so same-key ops would race their own
				// batch; distinct keys make results order-independent.
				seen := map[uint64]bool{}
				var batch []pending
				for len(batch) < batchSize {
					k := base + uint64(rng.Intn(perThread))
					if seen[k] {
						continue
					}
					seen[k] = true
					if rng.Intn(2) == 0 {
						v := uint64(rng.Intn(1 << 30))
						wantV, wantOK := model.Insert(k, v)
						batch = append(batch, pending{ah.Insert(k, v), true, wantV, wantOK})
					} else {
						wantV, wantOK := model.Delete(k)
						batch = append(batch, pending{ah.Delete(k), false, wantV, wantOK})
					}
				}
				ah.Flush()
				for j, p := range batch {
					v, ok := p.fut.Wait()
					if ok != p.wantOK || (ok && v != p.wantV) {
						t.Errorf("thread %d round %d op %d (insert=%v) = (%d,%v), model (%d,%v)",
							ti, r, j, p.ins, v, ok, p.wantV, p.wantOK)
						return
					}
				}
			}
			sum, count := model.KeySum()
			mu.Lock()
			wantSum += sum
			wantCnt += count
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sum, count := tree.KeySum()
	if sum != wantSum || count != wantCnt {
		t.Fatalf("KeySum = (%d,%d), models (%d,%d)", sum, count, wantSum, wantCnt)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if plan.Fires(htmtree.FaultBatchFlush) == 0 {
		t.Fatal("no flush stalled: the battery exercised nothing")
	}
	if st := tree.Stats().Batch; st.Groups == 0 {
		t.Fatalf("group execution ran no groups: %+v", st)
	}
}
