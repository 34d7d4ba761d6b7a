package modelcheck

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"htmtree"
)

// Observability race battery: every capture surface of the PR 9
// observability layer — metric-family scrapes, latency-histogram
// snapshots, flight-recorder drains — runs concurrently with the
// hottest writer traffic each configuration can produce, under the race
// detector. The scraper goroutine hammers WriteProm, Snapshot and
// Events in a tight loop for the whole trial, so every reader/writer
// pairing (atomic counter sums vs operation threads, hist.Atomic
// snapshot vs Record, ring drain vs the reserve-then-store writers,
// including the shard layer's shared multi-writer recorder) gets
// exercised rather than sampled.

// observedScrapeLoop scrapes tree's domain until stop, then reports how
// many full scrape rounds completed.
func observedScrapeLoop(t *testing.T, tree *htmtree.Tree, stop *atomic.Bool) *sync.WaitGroup {
	t.Helper()
	o := tree.Obs()
	if o == nil {
		t.Fatal("tree built without observability domain")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := o.WriteProm(io.Discard); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			o.Snapshot()
			o.Events()
			o.LatencySnapshot()
		}
	}()
	return &wg
}

// observedChurn runs the standard tracked mixed workload (inserts,
// deletes, range queries) and returns the expected key-sum and count.
func observedChurn(tree *htmtree.Tree, goroutines, opsPerG int, keySpan uint64) (sum, count int64) {
	var wg sync.WaitGroup
	sums := make([]int64, goroutines)
	counts := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			var out []htmtree.KV
			for i := 0; i < opsPerG; i++ {
				k := uint64((g*7919+i*31)%int(keySpan)) + 1
				switch i % 4 {
				case 0, 1:
					if _, existed := h.Insert(k, k); !existed {
						sums[g] += int64(k)
						counts[g]++
					}
				case 2:
					if _, existed := h.Delete(k); existed {
						sums[g] -= int64(k)
						counts[g]--
					}
				case 3:
					out = h.RangeQuery(k, k+16, out[:0])
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range sums {
		sum += sums[g]
		count += counts[g]
	}
	return sum, count
}

// finishObserved stops the scraper, differentially validates the tree
// against the threads' tracked totals, and checks the observability
// layer actually captured the trial.
func finishObserved(t *testing.T, tree *htmtree.Tree, stop *atomic.Bool, scr *sync.WaitGroup,
	wantSum, wantCount int64) {
	t.Helper()
	stop.Store(true)
	scr.Wait()
	sum, count := tree.KeySum()
	if int64(sum) != wantSum || int64(count) != wantCount {
		t.Fatalf("key-sum (%d,%d), threads (%d,%d)", sum, count, wantSum, wantCount)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	o := tree.Obs()
	var b strings.Builder
	if err := o.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "htmtree_ops_total") {
		t.Fatal("final scrape missing htmtree_ops_total")
	}
	if len(o.Events()) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
}

// TestRaceObservedPathTransitions is the differential variant: the
// spurious-abort storm of TestRacePathTransitions with every thread
// recording sampled events and a concurrent scraper, unsharded and
// sharded. The tiny event ring forces continual wrap-around, the
// recorder's only multi-step state.
func TestRaceObservedPathTransitions(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 256
	)
	opsPerG := 3000
	if testing.Short() {
		opsPerG = 800
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("x%d", shards), func(t *testing.T) {
			t.Parallel()
			cfg := htmtree.Config{
				Algorithm:          htmtree.ThreePath,
				AttemptLimit:       1,
				FastLimit:          1,
				MiddleLimit:        1,
				SpuriousAbortEvery: 3,
				Shards:             shards,
				ShardKeySpan:       keySpan,
				Observability: &htmtree.ObsConfig{
					LatencySample: 2,
					EventSample:   2,
					EventBuffer:   64,
				},
			}
			var (
				tree *htmtree.Tree
				err  error
			)
			if shards > 1 {
				tree, err = htmtree.NewShardedBST(cfg)
			} else {
				tree, err = htmtree.NewBST(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			scr := observedScrapeLoop(t, tree, &stop)
			sum, count := observedChurn(tree, goroutines, opsPerG, keySpan)
			finishObserved(t, tree, &stop, scr, sum, count)
			if st := tree.Stats(); st.Ops.Middle == 0 || st.Ops.Fallback == 0 {
				t.Fatalf("3-path transitions not exercised: %+v", st.Ops)
			}
		})
	}
}

// TestRaceObservedHelpableTLE drives the announce/help/install protocol
// with the recorder on: helpable-fallback cold events (announce, help,
// install, acquire) are recorded unconditionally by whichever thread
// performs them, so helping threads write into their own rings while
// the owner writes into its — concurrently with the scraper's drains.
func TestRaceObservedHelpableTLE(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 128
	)
	opsPerG := 2000
	if testing.Short() {
		opsPerG = 600
	}
	tree, err := htmtree.NewBST(htmtree.Config{
		Algorithm:          htmtree.TLE,
		HelpableFallback:   true,
		AttemptLimit:       1,
		SpuriousAbortEvery: 3,
		Observability:      &htmtree.ObsConfig{EventSample: 2, EventBuffer: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	scr := observedScrapeLoop(t, tree, &stop)
	sum, count := observedChurn(tree, goroutines, opsPerG, keySpan)
	finishObserved(t, tree, &stop, scr, sum, count)
	if st := tree.Stats(); st.Ops.Fallback == 0 {
		t.Fatalf("helpable fallback never reached: %+v", st.Ops)
	}
}

// TestRaceObservedMigration churns an adaptive-router sharded tree
// tuned to migrate constantly: the shard layer's migration and quiesce
// events go through one shared recorder thread (RareEvent's multi-writer
// path) while per-shard engines record their own, all under concurrent
// scrapes.
func TestRaceObservedMigration(t *testing.T) {
	t.Parallel()
	const (
		goroutines = 4
		keySpan    = 512
	)
	opsPerG := 3000
	if testing.Short() {
		opsPerG = 800
	}
	tree, err := htmtree.NewShardedABTree(htmtree.Config{
		Algorithm:         htmtree.ThreePath,
		Shards:            4,
		ShardKeySpan:      keySpan,
		Router:            htmtree.RouterAdaptive,
		RebalanceCheckOps: 64,
		RebalanceRatio:    0.01, // migrate on any imbalance
		Observability:     &htmtree.ObsConfig{EventSample: 2, EventBuffer: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	scr := observedScrapeLoop(t, tree, &stop)

	// Skew the churn onto the low shard so the rebalancer has an
	// imbalance to chase throughout the run.
	var wg sync.WaitGroup
	sums := make([]int64, goroutines)
	counts := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			for i := 0; i < opsPerG; i++ {
				k := uint64((g*31+i*7)%(keySpan/4)) + 1
				if i%3 != 2 {
					if _, existed := h.Insert(k, k); !existed {
						sums[g] += int64(k)
						counts[g]++
					}
				} else if _, existed := h.Delete(k); existed {
					sums[g] -= int64(k)
					counts[g]--
				}
			}
		}(g)
	}
	wg.Wait()
	var wantSum, wantCount int64
	for g := range sums {
		wantSum += sums[g]
		wantCount += counts[g]
	}
	finishObserved(t, tree, &stop, scr, wantSum, wantCount)
	if mig := tree.Stats().Rebalance.Migrations; mig == 0 {
		t.Fatal("no migrations happened; the multi-writer recorder path went unexercised")
	}
	var sawMigrate bool
	for _, ev := range tree.Obs().Events() {
		if ev.KindName == "migrate_begin" || ev.KindName == "migrate_end" {
			sawMigrate = true
			break
		}
	}
	if !sawMigrate {
		t.Fatal("migrations ran but no migrate events were recorded")
	}
}
