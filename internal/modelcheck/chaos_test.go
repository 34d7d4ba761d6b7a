package modelcheck

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/htm"
)

// The chaos battery: every fault family the injection plane supports,
// run against lockstep sequential models under the race detector.
//
// Each worker owns a disjoint contiguous key range and drives its own
// model, so op-for-op agreement is sound under full concurrency (the
// shared trees, announcement slots, shard boundaries and fallback
// locks stay contended); the injected faults must change scheduling,
// never results.

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
// permanent owner death: a fault plan kills the announced helpable
// fallback owner on every 3rd fallback entry (four times), so four of
// six workers crash mid-protocol with their operation announced but
// not executed. The test proves:
//
//   - exactly-once completion: every worker's logged intents — the
//     dead workers' final, announced-but-unreturned operation included
//     — replayed through a sequential model, equal the tree's final
//     state key for key;
//   - progress: the liveness watchdog sees other threads complete
//     operations inside every kill window, and the survivors finish
//     their full bounded workload (a wedge would time the join out);
//   - helping really happened (engine help counter nonzero).
//
// Intents are logged BEFORE each operation starts, which makes the
// replay sound for crashed workers: the kill point sits after the
// announce, so a logged-but-unreturned operation is guaranteed to be
// driven to completion by helpers (the drain below forces the last
// one), while an operation is never executed without its intent on
// record.
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
			plan := htmtree.NewFaultPlan(0xdead0+uint64(len(structure)), htmtree.FaultRule{
				Point: htmtree.FaultFallbackOwner,
				Every: kEvery,
				Kill:  true,
				Count: kCount,
				Watch: true,
			})
			lv := &htmtree.FaultLiveness{}
			plan.Watch(lv)
			cfg := htmtree.Config{
				Algorithm: htmtree.TLE,
				// Every transactional access aborts and the budget is
				// one attempt: essentially every operation enters the
				// helpable fallback, so the kill budget is spent within
				// the first dozen operations.
				SpuriousAbortEvery: 1,
				AttemptLimit:       1,
				HelpableFallback:   true,
				Faults:             plan,
			}
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
				kind byte // 'i', 'd', 's'
				key  uint64
				val  uint64
			}
			type workerState struct {
				mu        sync.Mutex
				intents   []intent
				completed int
			}
			states := make([]*workerState, workers)
			done := make([]chan struct{}, workers)
			var halt atomic.Bool

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
						k := base + uint64(rng.Intn(perThread))
						v := uint64(rng.Intn(1 << 30))
						// Updates only: searches are not helpable — they
						// take the TLE word classically, and killing a
						// classic lock holder wedges the engine by design
						// (the weakness the helpable protocol removes; see
						// the classic owner-fault seam in engine.go). The
						// kill plan must only ever land on announced
						// updates. Reads are verified post-drain instead.
						var kind byte
						if rng.Intn(2) == 0 {
							kind = 'i'
						} else {
							kind = 'd'
						}
						ws.mu.Lock()
						ws.intents = append(ws.intents, intent{kind, k, v})
						ws.mu.Unlock()
						switch kind {
						case 'i':
							old, existed := h.Insert(k, v)
							if halt.Load() {
								return // resumed post-release: tree mutated, no compares
							}
							wantOld, wantEx := model.Insert(k, v)
							if existed != wantEx || (existed && old != wantOld) {
								t.Errorf("worker %d op %d Insert(%d) = (%d,%v), model (%d,%v)",
									w, i, k, old, existed, wantOld, wantEx)
								return
							}
						case 'd':
							old, existed := h.Delete(k)
							if halt.Load() {
								return
							}
							wantOld, wantEx := model.Delete(k)
							if existed != wantEx || (existed && old != wantOld) {
								t.Errorf("worker %d op %d Delete(%d) = (%d,%v), model (%d,%v)",
									w, i, k, old, existed, wantOld, wantEx)
								return
							}
						}
						lv.OpDone()
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
			deadWorkers := 0
			for w, c := range closed {
				if !c {
					deadWorkers++
					t.Logf("worker %d did not return (killed owner)", w)
				}
			}
			halt.Store(true)
			if t.Failed() {
				plan.ReleaseKilled()
				return
			}
			kills := plan.Fires(htmtree.FaultFallbackOwner)
			if kills != kCount {
				t.Errorf("kills fired = %d, want %d", kills, kCount)
			}
			if deadWorkers != int(kills) {
				t.Errorf("dead workers = %d, kills = %d (each kill must park exactly one owner)", deadWorkers, kills)
			}

			// Drain: an engine has a single announcement slot, so at most
			// one killed owner's descriptor is still pending (every
			// earlier one was necessarily helped to completion before
			// its successor could announce). Complete it here.
			hh := tree.NewHandle()
			for i := 0; i < 16 && hh.Help(); i++ {
			}

			// Replay every worker's intents — including the dead
			// workers' final announced-but-unreturned operation — and
			// compare the tree key for key.
			var wantSum, wantCnt uint64
			for w, ws := range states {
				ws.mu.Lock()
				intents, completed := ws.intents, ws.completed
				ws.mu.Unlock()
				if len(intents) < completed || len(intents) > completed+1 {
					t.Fatalf("worker %d: %d intents, %d completed (log out of step)", w, len(intents), completed)
				}
				replay := NewModel()
				for _, in := range intents {
					switch in.kind {
					case 'i':
						replay.Insert(in.key, in.val)
					case 'd':
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
				// A crashed owner legitimately leaves a relaxed-tree
				// degree violation behind: helpers complete the
				// announced operation but only the owner runs the
				// deferred fix, and the owner is dead. Anything else is
				// a real corruption.
				if structure == "abtree" && strings.Contains(err.Error(), "underfull") {
					t.Logf("tolerated relaxed violation from dead owner: %v", err)
				} else {
					t.Error(err)
				}
			}

			// Liveness: every kill window must have seen other threads
			// complete operations, and helping must actually have
			// happened.
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
			if helps := tree.Stats().Policy.Helps; helps == 0 {
				t.Error("no announced operation was completed by a helper")
			}

			// Teardown, after every assertion: unpark the dead owners.
			// They re-drive an already-completed descriptor (helping is
			// idempotent), observe halt, and exit.
			plan.ReleaseKilled()
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

// TestChaosMigrationInterrupt stalls the adaptive router's migrations
// at every step the bracket protects — inside the quiesce gates, after
// the receiver insert loop, and after the routing-table swap — under a
// workload skewed onto one shard so migrations actually run. Lockstep
// agreement and the final key-sum prove interrupted migrations neither
// lose nor duplicate keys.
func TestChaosMigrationInterrupt(t *testing.T) {
	const (
		threads   = 6
		perThread = 128
	)
	numOps := chaosOps(700)
	plan := htmtree.NewFaultPlan(0x316,
		htmtree.FaultRule{Point: htmtree.FaultQuiesce, Every: 1, Stall: 200 * time.Microsecond},
		htmtree.FaultRule{Point: htmtree.FaultMigrateSwap, Every: 1, Stall: 200 * time.Microsecond},
		htmtree.FaultRule{Point: htmtree.FaultMigrateDelete, Every: 1, Stall: 200 * time.Microsecond},
	)
	cfg := htmtree.Config{
		Algorithm: htmtree.ThreePath,
		Shards:    4,
		// The workers' ranges cover only the first quarter of the key
		// span, so the range router maps everything to shard 0 and the
		// adaptive rebalancer must migrate boundaries to spread it.
		ShardKeySpan:      uint64(threads * perThread * 4),
		Router:            htmtree.RouterAdaptive,
		RebalanceCheckOps: 64,
		Faults:            plan,
	}
	tree, err := htmtree.NewShardedBST(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chaosLockstep(t, tree, nil, threads, perThread, numOps, 0x319)
	if t.Failed() {
		return
	}
	st := tree.Stats()
	if st.Rebalance.Migrations == 0 {
		t.Fatal("no migration ran: the battery exercised nothing")
	}
	t.Logf("migrations=%d keysMoved=%d quiesceStalls=%d swapStalls=%d deleteStalls=%d",
		st.Rebalance.Migrations, st.Rebalance.KeysMoved,
		plan.Fires(htmtree.FaultQuiesce), plan.Fires(htmtree.FaultMigrateSwap),
		plan.Fires(htmtree.FaultMigrateDelete))
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

// TestChaosAggWriterStall parks fallback writers inside the aggregate
// seqlock's write section (version odd) while other threads run
// aggregate queries: the readers must retry past the stalled writer
// and still return exactly consistent aggregates.
func TestChaosAggWriterStall(t *testing.T) {
	const (
		threads   = 4
		perThread = 128
	)
	numOps := chaosOps(500)
	plan := htmtree.NewFaultPlan(0xa99, htmtree.FaultRule{
		Point: htmtree.FaultAggFixup, Every: 4, Stall: 100 * time.Microsecond,
	})
	tree, err := htmtree.NewABTree(htmtree.Config{
		Algorithm: htmtree.ThreePath,
		// Force fallback traffic so the non-transactional fixup (the
		// injected seam) actually runs.
		SpuriousAbortEvery: 8,
		AttemptLimit:       2,
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
					// exact agreement required even while a stalled
					// writer holds the seqlock odd.
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
	if plan.Fires(htmtree.FaultAggFixup) == 0 {
		t.Fatal("no fixup stalled: the battery exercised nothing")
	}
}

// TestChaosBatchFlushDelay stalls the asynchronous batching pipeline's
// flushes. Futures must still resolve with exactly the sequential
// results: workers enqueue rounds of distinct-key operations, flush,
// and compare every future against the model.
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
	tree, err := htmtree.NewBST(htmtree.Config{
		Algorithm:   htmtree.ThreePath,
		BatchMaxOps: batchSize,
		Faults:      plan,
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
}
