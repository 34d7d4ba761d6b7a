package modelcheck

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htmtree"
	"htmtree/internal/htm"
)

// Per-key linearizability of point operations (ROADMAP D(1)).
// Linearizability is local (Herlihy & Wing 1990): a map's history is
// linearizable exactly when each key's sub-history is, so the checker
// splits a concurrent history of Insert/Delete/Search by key and checks
// each part against a one-register model with the Wing–Gong search:
// repeatedly pick an operation that could take effect first — one
// invoked before every remaining operation's response — apply it to the
// register, and backtrack when its recorded result disagrees. Failed
// (linearized set, register) states are memoized, which keeps the
// search polynomial at the small concurrency the workers produce.

// Point operation kinds of a recorded history.
const (
	linInsert = iota
	linDelete
	linSearch
)

// linOp is one completed point operation: what was asked, the tickets
// taken just before its invocation and just after its response from one
// global counter (so call < ret, and a.ret < b.call means a completed
// before b began), and what it returned — (old, existed) for an update,
// (val, found) for a Search.
type linOp struct {
	kind      uint8
	key, val  uint64
	call, ret uint64
	out       uint64
	ok        bool
}

func (o linOp) String() string {
	name := [...]string{"Insert", "Delete", "Search"}[o.kind]
	arg := fmt.Sprint(o.key)
	if o.kind == linInsert {
		arg += fmt.Sprintf(",%d", o.val)
	}
	return fmt.Sprintf("[%d,%d] %s(%s) = (%d,%v)", o.call, o.ret, name, arg, o.out, o.ok)
}

// linRegister is the sequential model of one key: absent, or present
// with a value.
type linRegister struct {
	present bool
	val     uint64
}

// apply reports whether o, taking effect on r, returns what it recorded,
// and the register after it.
func (r linRegister) apply(o linOp) (linRegister, bool) {
	if o.ok != r.present || (o.ok && o.out != r.val) {
		return r, false
	}
	switch o.kind {
	case linInsert:
		return linRegister{present: true, val: o.val}, true
	case linDelete:
		return linRegister{}, true
	}
	return r, true
}

// linearizable reports whether one key's sub-history is linearizable
// against a register that starts absent.
func linearizable(ops []linOp) bool {
	ops = append([]linOp(nil), ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].call < ops[j].call })
	done := make([]uint64, (len(ops)+63)/64)
	failed := map[string]bool{}
	memo := func(r linRegister) string {
		var b strings.Builder
		for _, w := range done {
			fmt.Fprintf(&b, "%x.", w)
		}
		fmt.Fprintf(&b, "%v.%d", r.present, r.val)
		return b.String()
	}
	var search func(left int, r linRegister) bool
	search = func(left int, r linRegister) bool {
		if left == 0 {
			return true
		}
		key := memo(r)
		if failed[key] {
			return false
		}
		minRet := ^uint64(0)
		for i, o := range ops {
			if done[i/64]&(1<<(i%64)) == 0 && o.ret < minRet {
				minRet = o.ret
			}
		}
		for i, o := range ops {
			if o.call > minRet {
				break // invoked after a remaining operation responded
			}
			if done[i/64]&(1<<(i%64)) != 0 {
				continue
			}
			next, ok := r.apply(o)
			if !ok {
				continue
			}
			done[i/64] |= 1 << (i % 64)
			found := search(left-1, next)
			done[i/64] &^= 1 << (i % 64)
			if found {
				return true
			}
		}
		failed[key] = true
		return false
	}
	return search(len(ops), linRegister{})
}

// checkLinearizable splits a history by key and checks every key's
// part, returning one error per key whose part is not linearizable.
func checkLinearizable(hist []linOp) []error {
	byKey := map[uint64][]linOp{}
	for _, o := range hist {
		byKey[o.key] = append(byKey[o.key], o)
	}
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var errs []error
	for _, k := range keys {
		if part := byKey[k]; !linearizable(part) {
			sort.Slice(part, func(i, j int) bool { return part[i].call < part[j].call })
			lines := make([]string, len(part))
			for i, o := range part {
				lines[i] = "  " + o.String()
			}
			errs = append(errs, fmt.Errorf("key %d: %d operations with no linearization:\n%s",
				k, len(part), strings.Join(lines, "\n")))
		}
	}
	return errs
}

// recordPointHistory runs workers goroutines of n random point
// operations each over keys 1..keys of tree and returns the history,
// every operation bracketed by tickets from one global counter. Every
// insert writes a value no other insert writes. With async, each worker
// enqueues runs of 1 to 8 operations through an AsyncHandle and then
// waits on the run's futures in order: an operation's call ticket is
// taken before its enqueue and its ret ticket after its Wait returns.
func recordPointHistory(tree *htmtree.Tree, async bool, seed int64, workers, n, keys int) []linOp {
	var (
		ticket atomic.Uint64
		wg     sync.WaitGroup
		start  = make(chan struct{})
	)
	hists := make([][]linOp, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				h    *htmtree.Handle
				ah   *htmtree.AsyncHandle
				futs []htmtree.PointFuture
			)
			if async {
				ah = tree.NewAsyncHandle()
			} else {
				h = tree.NewHandle()
			}
			rng := rand.New(rand.NewSource(seed*int64(workers) + int64(w)))
			hist := make([]linOp, 0, n)
			<-start
			for i := 0; i < n; {
				run := 1
				if async {
					run += rng.Intn(8)
				}
				first := len(hist)
				for ; run > 0 && i < n; run, i = run-1, i+1 {
					o := linOp{kind: uint8(rng.Intn(3)), key: uint64(1 + rng.Intn(keys))}
					if o.kind == linInsert {
						o.val = uint64(w+1)<<32 | uint64(i+1)
					}
					o.call = ticket.Add(1)
					maybeYield(rng)
					switch {
					case async && o.kind == linInsert:
						futs = append(futs, ah.Insert(o.key, o.val))
					case async && o.kind == linDelete:
						futs = append(futs, ah.Delete(o.key))
					case async:
						futs = append(futs, ah.Search(o.key))
					case o.kind == linInsert:
						o.out, o.ok = h.Insert(o.key, o.val)
					case o.kind == linDelete:
						o.out, o.ok = h.Delete(o.key)
					default:
						o.out, o.ok = h.Search(o.key)
					}
					hist = append(hist, o)
				}
				for j := first; j < len(hist); j++ {
					if async {
						hist[j].out, hist[j].ok = futs[j-first].Wait()
					}
					maybeYield(rng)
					hist[j].ret = ticket.Add(1)
				}
				futs = futs[:0]
			}
			hists[w] = hist
		}(w)
	}
	close(start)
	wg.Wait()
	var all []linOp
	for _, h := range hists {
		all = append(all, h...)
	}
	return all
}

// historyBound is how long one recorded history may take before the
// test calls it a hang. Measured on 2 vCPUs (Intel Xeon) with every case
// running in parallel, the longest of the 84 histories took 0.10 s, and
// 0.27 s under -race (stall and pin-stall, whose injected 200 µs stalls
// dominate); -short's shorter histories, under -race, 0.10 s. 30 s is
// over a hundred times the longest and still fires well inside go test's
// default 10-minute timeout.
const historyBound = 30 * time.Second

// recordWithin runs recordPointHistory under a watchdog: it returns the
// history, or false once bound elapses first. A history that overruns is
// stuck — a worker looping in a subtree reused under it, say — and its
// workers cannot be stopped from outside, so they are abandoned.
func recordWithin(bound time.Duration, tree *htmtree.Tree, async bool, seed int64, workers, n, keys int) ([]linOp, bool) {
	done := make(chan []linOp, 1) // an abandoned recorder's send must not block
	go func() { done <- recordPointHistory(tree, async, seed, workers, n, keys) }()
	select {
	case hist := <-done:
		return hist, true
	case <-time.After(bound):
		return nil, false
	}
}

// maybeYield yields the processor on one call in four. The recorder
// calls it between an operation's tickets and the operation itself, so
// the workers' windows overlap however few processors run them: an
// operation's interval may only grow, never shrink, on either side of
// where it takes effect.
func maybeYield(rng *rand.Rand) {
	if rng.Intn(4) == 0 {
		runtime.Gosched()
	}
}

// TestLinearizableCheckerRejects pins the checker to hand-made
// histories: the legal ones must pass and each illegal one must fail.
func TestLinearizableCheckerRejects(t *testing.T) {
	t.Parallel()
	ins := func(call, ret, val, old uint64, existed bool) linOp {
		return linOp{kind: linInsert, key: 1, val: val, call: call, ret: ret, out: old, ok: existed}
	}
	del := func(call, ret, old uint64, existed bool) linOp {
		return linOp{kind: linDelete, key: 1, call: call, ret: ret, out: old, ok: existed}
	}
	get := func(call, ret, val uint64, found bool) linOp {
		return linOp{kind: linSearch, key: 1, call: call, ret: ret, out: val, ok: found}
	}
	for _, tc := range []struct {
		name string
		hist []linOp
		want bool
	}{
		{"sequential", []linOp{ins(1, 2, 7, 0, false), get(3, 4, 7, true), del(5, 6, 7, true), get(7, 8, 0, false)}, true},
		{"search overlaps the insert", []linOp{get(1, 4, 0, false), ins(2, 3, 7, 0, false)}, true},
		{"overlapping inserts, either order", []linOp{ins(1, 4, 7, 9, true), ins(2, 3, 9, 0, false)}, true},
		{"search misses a completed insert", []linOp{ins(1, 2, 7, 0, false), get(3, 4, 0, false)}, false},
		{"search sees a stale value", []linOp{ins(1, 2, 7, 0, false), ins(3, 4, 9, 7, true), get(5, 6, 7, true)}, false},
		{"two deletes both remove it", []linOp{ins(1, 2, 7, 0, false), del(3, 6, 7, true), del(4, 5, 7, true)}, false},
		{"insert reports a value never written", []linOp{ins(1, 2, 7, 5, true)}, false},
	} {
		if got := linearizable(tc.hist); got != tc.want {
			t.Errorf("%s: linearizable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPointOpsLinearizable checks the point operations of both trees
// under every algorithm, of both trees on 3-path under a seeded
// spurious-abort plan (so that every history crosses the paths: an
// operation's attempts fail at random and it moves on), under the same
// plan with fallback owners stalled as their software path begins (so
// that histories overlap an F holder descheduled mid-operation), under
// a seeded capacity-abort plan (so that every op's site learns to start
// past the fast path, and its probes still take it), under the
// spurious-abort plan with operations stalled right after they pin
// their epoch (so that every reused node has come through a grace
// period the stall stretched), of the monitored 8-shard BST, and of a
// monitored 2-shard (a,b)-tree driven through asynchronous handles
// (flushing batches of at most 4 as shard groups, under the spurious
// plan with flushes stalled, so that futures are waited on across
// stalled, reordered batches), for per-key linearizability: 4
// workers over 8 keys, so every key's operations overlap, on every path
// the contention sends them to. A failure prints the seed the workers'
// operation streams derive from and the fault plan, which reproduce it;
// so does a history that does not complete within historyBound.
func TestPointOpsLinearizable(t *testing.T) {
	t.Parallel()
	const (
		workers = 4
		keys    = 8
		rounds  = 4
	)
	n := 400
	if testing.Short() {
		n = 150
	}
	spurious := htmtree.FaultRule{Point: htmtree.FaultTxAccess, Prob: 1.0 / 2, Cause: uint8(htm.CauseSpurious)}
	type linCase struct {
		name  string
		async bool
		build func(seed int64) (*htmtree.Tree, *htmtree.FaultPlan, error)
	}
	check := func(t *testing.T, c linCase) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= rounds; seed++ {
				tree, plan, err := c.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				hist, ok := recordWithin(historyBound, tree, c.async, seed, workers, n, keys)
				if !ok {
					t.Fatalf("seed=%d plan=%v: the history did not complete within %v (its workers are abandoned)", seed, plan, historyBound)
				}
				for _, err := range checkLinearizable(hist) {
					t.Errorf("seed=%d plan=%v: %v", seed, plan, err)
				}
				if o := tree.Stats().Ops; plan != nil && (o.Fast == 0 || o.Middle == 0 || o.Fallback == 0) {
					t.Errorf("seed=%d plan=%v: completions %+v: the history did not cross every path", seed, plan, o)
				}
			}
		})
	}
	for _, tr := range []struct {
		name string
		new  func(htmtree.Config) (*htmtree.Tree, error)
	}{{"bst", htmtree.NewBST}, {"abtree", htmtree.NewABTree}} {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			for _, alg := range htmtree.Algorithms() {
				alg := alg
				check(t, linCase{string(alg), false, func(int64) (*htmtree.Tree, *htmtree.FaultPlan, error) {
					tree, err := tr.new(htmtree.Config{Algorithm: alg})
					return tree, nil, err
				}})
			}
			// At 1/8 a capacity abort per access, every seed completes
			// dozens of operations on each path, and hundreds start past
			// the fast path (engine.Thread.skipFast).
			capacity := htmtree.FaultRule{Point: htmtree.FaultTxAccess, Prob: 1.0 / 8, Cause: uint8(htm.CauseCapacity)}
			for _, c := range []struct {
				name  string
				rules []htmtree.FaultRule
			}{
				{"spurious", []htmtree.FaultRule{spurious}},
				{"stall", []htmtree.FaultRule{spurious,
					{Point: htmtree.FaultFallbackOwner, Prob: 1.0 / 4, Stall: 200 * time.Microsecond}}},
				{"capacity", []htmtree.FaultRule{capacity}},
				{"pin-stall", []htmtree.FaultRule{spurious,
					{Point: htmtree.FaultEBRPin, Prob: 1.0 / 4, Stall: 200 * time.Microsecond}}},
			} {
				c := c
				check(t, linCase{c.name, false, func(seed int64) (*htmtree.Tree, *htmtree.FaultPlan, error) {
					plan := htmtree.NewFaultPlan(uint64(seed), c.rules...)
					tree, err := tr.new(htmtree.Config{Algorithm: htmtree.ThreePath, Faults: plan})
					return tree, plan, err
				}})
			}
		})
	}
	check(t, linCase{"bst/x8/atomic", false, func(int64) (*htmtree.Tree, *htmtree.FaultPlan, error) {
		tree, err := htmtree.NewShardedBST(htmtree.Config{Algorithm: htmtree.ThreePath,
			Shards: 8, ShardKeySpan: keys, AtomicRangeQueries: true})
		return tree, nil, err
	}})
	check(t, linCase{"abtree/x2/async", true, func(seed int64) (*htmtree.Tree, *htmtree.FaultPlan, error) {
		plan := htmtree.NewFaultPlan(uint64(seed), spurious,
			htmtree.FaultRule{Point: htmtree.FaultBatchFlush, Prob: 1.0 / 4, Stall: 200 * time.Microsecond})
		tree, err := htmtree.NewShardedABTree(htmtree.Config{Algorithm: htmtree.ThreePath,
			Shards: 2, ShardKeySpan: keys, AtomicRangeQueries: true, BatchMaxOps: 4, Faults: plan})
		return tree, plan, err
	}})
}
