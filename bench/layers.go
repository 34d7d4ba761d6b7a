package main

// The layer ladder: every call this benchmark makes into an internal
// package lives in this file. A later change that must alter one of the
// symbols below needs a benchmark change first.
//
// Exported symbols depended on:
//
//	htm:    Config{Faults}, New, (*TM).NewThread, (*TM).Clock, Word, Ref,
//	        (*Word).Bind/Get/Set, (*Ref).Bind/Get/Set, (*Thread).Atomic,
//	        (*Tx).Abort, Tx, PathFast, CauseCapacity
//	engine: Config{Algorithm, Monitor, HelpableFallback}, New,
//	        (*Engine).NewThread, (*Thread).Run, (*Thread).PrepareOp, Op{Fast,
//	        Middle, Fallback, Update}, NewUpdateMonitor, OpStats, Algorithm,
//	        AlgThreePath, AlgTwoPathConc, AlgNonHTM, AlgTLE
//	ebr:    New, (*Manager).NewThread, (*Thread).Begin/End
//	abtree: Config{Algorithm, HTM, Engine}, New, (*Tree).NewHandle/KeySum/OpStats
//	bst:    Config{Algorithm, HTM, Engine}, New, (*Tree).NewHandle/KeySum/OpStats
//	dict:   Handle, AggHandle, KV, Agg
//
// and, from the public package, Config{Shards, ShardKeySpan,
// AtomicRangeQueries, BatchMaxOps, Observability}, ObsConfig,
// NewABTree, NewShardedABTree, (*Tree).NewHandle/NewAsyncHandle/KeySum,
// AsyncHandle, PointFuture, NewFaultPlan, FaultRule, FaultTxAccess.

import (
	"fmt"
	"time"

	"htmtree"
	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/dict"
	"htmtree/internal/ebr"
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

const (
	ladderKeys    = 10_000
	ladderScanLen = 1_000
	batchMaxOps   = 64
)

// ladderRungs names the kernels the ladder times, in the order they run
// within one repetition. Metrics are derived from them in ladderMetrics.
var ladderRungs = []string{
	"seq", "cell", "tx_empty", "tx_r8", "tx_r64", "tx_w1", "tx_w8", "tx_abort", "tx_body",
	"engine_run", "engine_mon", "ebr",
	"abtree.fast", "abtree.middle", "abtree.fallback", "abtree.tle", "abtree.tle-help",
	"abtree.scan", "abtree.rangeagg",
	"bst.fast", "bst.middle", "bst.fallback", "bst.tle", "bst.tle-help", "bst.scan",
	"public", "shard", "shard_atomic", "async", "obs", "timed",
}

// kernel runs n iterations of one rung's call pattern and returns the
// number of units (calls, Get+Set pairs, or keys returned) they made.
type kernel struct {
	run   func(n int) uint64
	batch int // iterations between clock reads
}

// ladder is one worker's set of warmed structures, one per rung.
type ladder struct {
	kernels map[string]kernel
	tl      tally // every result the rungs returned is checked
	finals  []func() error
}

// cycle is the ladder's call pattern on a tree: one 50/50 update on a
// uniform key, then a Search of the same key (the BenchmarkMicro*Cycle
// shape with random keys). Two calls per iteration.
func cycle(t pointTree, g *opGen, tl *tally) func(n int) uint64 {
	return func(n int) uint64 {
		for i := 0; i < n; i++ {
			kind, key := g.next()
			if kind == opInsert {
				old, existed := t.Insert(key, valueOf(key))
				tl.insert(key, old, existed)
			} else {
				old, existed := t.Delete(key)
				tl.delete(key, old, existed)
			}
			val, found := t.Search(key)
			tl.search(key, val, found)
		}
		return uint64(2 * n)
	}
}

// innerTree is what the ladder needs from internal/abtree and
// internal/bst.
type innerTree interface {
	NewHandle() dict.Handle
	KeySum() (sum, count uint64)
	OpStats() engine.OpStats
}

func newLadder(seed uint64) (*ladder, error) {
	l := &ladder{kernels: map[string]kernel{}}
	stream := uint64(1000)
	nextRNG := func() rng {
		stream++
		return newRNG(seed, stream)
	}
	gen := func() *opGen {
		return &opGen{r: nextRNG(), keys: ladderKeys, mix: mixUpdate}
	}
	// warmed prefills t and registers its final checksum comparison.
	warmed := func(name string, t pointTree, keySum func() (uint64, uint64)) *tally {
		tl := &tally{}
		prefill(t, ladderKeys, nextRNG(), tl)
		l.finals = append(l.finals, func() error {
			sum, count := keySum()
			l.tl.attempted += tl.attempted
			l.tl.failed += tl.failed
			if err := tl.checkFinal(sum, count, nil); err != nil {
				return fmt.Errorf("ladder %s: %w", name, err)
			}
			return nil
		})
		return tl
	}
	treeRung := func(name string, t pointTree, keySum func() (uint64, uint64)) {
		l.kernels[name] = kernel{run: cycle(t, gen(), warmed(name, t, keySum)), batch: 32}
	}

	// The reference tree.
	ref := newRefTree(ladderKeys)
	treeRung("seq", ref, ref.KeySum)

	// htm: cells without a transaction, then one transaction attempt
	// with bodies of known read and write counts.
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	words := make([]htm.Word, 128)
	for i := range words {
		words[i].Bind(tm.Clock())
	}
	var ref0 htm.Ref[int]
	ref0.Bind(tm.Clock())
	target := new(int)
	l.kernels["cell"] = kernel{batch: 256, run: func(n int) uint64 {
		for i := 0; i < n; i++ {
			w := &words[i&63]
			w.Set(nil, w.Get(nil)+1)
			ref0.Set(nil, target)
			if ref0.Get(nil) != target {
				l.tl.failed++
			}
		}
		l.tl.attempted += uint64(n)
		return uint64(2 * n) // one Word and one Ref Get+Set pair
	}}
	var sink uint64
	body := func(reads, writes int) func(*htm.Tx) {
		return func(tx *htm.Tx) {
			var s uint64
			for i := 0; i < reads; i++ {
				s += words[i].Get(tx)
			}
			for i := 0; i < writes; i++ {
				words[64+i].Set(tx, s)
			}
			sink += s
		}
	}
	atomic := func(fn func(*htm.Tx), commits bool) kernel {
		return kernel{batch: 64, run: func(n int) uint64 {
			for i := 0; i < n; i++ {
				if ok, _ := th.Atomic(htm.PathFast, fn); ok != commits {
					l.tl.failed++
				}
			}
			l.tl.attempted += uint64(n)
			return uint64(n)
		}}
	}
	l.kernels["tx_empty"] = atomic(body(0, 0), true)
	l.kernels["tx_r8"] = atomic(body(8, 0), true)
	l.kernels["tx_r64"] = atomic(body(64, 0), true)
	l.kernels["tx_w1"] = atomic(body(0, 1), true)
	l.kernels["tx_w8"] = atomic(body(0, 8), true)
	l.kernels["tx_body"] = atomic(body(8, 1), true)
	l.kernels["tx_abort"] = atomic(func(tx *htm.Tx) { tx.Abort(1) }, false)

	// engine: the same 8-read 1-write body through Thread.Run, without
	// and with an update monitor. No reclamation context, so no ebr
	// bracket: that is its own rung.
	engineRun := func(mon *engine.UpdateMonitor) kernel {
		eng := engine.New(engine.Config{Algorithm: engine.AlgThreePath, Monitor: mon}, tm.Clock())
		eth := eng.NewThread(tm.NewThread())
		b := body(8, 1)
		op := eth.PrepareOp(engine.Op{Fast: b, Middle: b, Fallback: func() bool { return true }, Update: true})
		return kernel{batch: 64, run: func(n int) uint64 {
			for i := 0; i < n; i++ {
				if eth.Run(op) != htm.PathFast {
					l.tl.failed++
				}
			}
			l.tl.attempted += uint64(n)
			return uint64(n)
		}}
	}
	l.kernels["engine_run"] = engineRun(nil)
	l.kernels["engine_mon"] = engineRun(engine.NewUpdateMonitor(nil))

	rec := ebr.New().NewThread(func(any) {})
	l.kernels["ebr"] = kernel{batch: 256, run: func(n int) uint64 {
		for i := 0; i < n; i++ {
			rec.Begin()
			rec.End()
		}
		return uint64(n)
	}}

	// The trees' internal handles, one tree per path body. Under tle
	// every transactional access is capacity-aborted by a fault plan, so
	// every operation runs the locked fallback: the classic lock, then
	// the helpable one.
	capacityStorm := func() *htmtree.FaultPlan {
		return htmtree.NewFaultPlan(seed, htmtree.FaultRule{
			Point: htmtree.FaultTxAccess, Every: 1, Cause: uint8(htm.CauseCapacity),
		})
	}
	type variant struct {
		name     string
		alg      engine.Algorithm
		storm    bool
		helpable bool
		path     func(engine.OpStats) uint64 // where its operations must complete
	}
	fast := func(s engine.OpStats) uint64 { return s.Fast }
	fallback := func(s engine.OpStats) uint64 { return s.Fallback }
	variants := []variant{
		{"fast", engine.AlgThreePath, false, false, fast},
		{"middle", engine.AlgTwoPathConc, false, false, fast}, // 2-path-con runs the middle body as its first path
		{"fallback", engine.AlgNonHTM, false, false, fallback},
		{"tle", engine.AlgTLE, true, false, fallback},
		{"tle-help", engine.AlgTLE, true, true, fallback},
	}
	for _, kind := range []string{"abtree", "bst"} {
		for _, v := range variants {
			hcfg := htm.Config{}
			if v.storm {
				hcfg.Faults = capacityStorm()
			}
			ecfg := engine.Config{HelpableFallback: v.helpable}
			var t innerTree
			if kind == "abtree" {
				t = abtree.New(abtree.Config{Algorithm: v.alg, HTM: hcfg, Engine: ecfg})
			} else {
				t = bst.New(bst.Config{Algorithm: v.alg, HTM: hcfg, Engine: ecfg})
			}
			name := kind + "." + v.name
			h := t.NewHandle()
			treeRung(name, h, t.KeySum)
			l.finals = append(l.finals, func() error {
				s := t.OpStats()
				if on := v.path(s); float64(on) < 0.99*float64(s.Total()) {
					return fmt.Errorf("ladder %s: only %d of %d operations ran the body the rung is named after", name, on, s.Total())
				}
				return nil
			})
			if v.name != "fast" {
				continue
			}
			// Scans and aggregate queries ride on the fast-path tree.
			sg := &scanGen{r: nextRNG(), keys: ladderKeys, maxLen: 1}
			var out []dict.KV
			l.kernels[kind+".scan"] = kernel{batch: 2, run: func(n int) (keys uint64) {
				for i := 0; i < n; i++ {
					lo, _ := sg.next()
					hi := lo + ladderScanLen
					out = h.RangeQuery(lo, hi, out[:0])
					c := scanCheck{lo: lo, hi: hi}
					for _, p := range out {
						c.elem(p.Key, p.Val)
					}
					l.tl.scan(&c)
					keys += uint64(len(out))
				}
				return keys
			}}
			if kind == "abtree" {
				ah := h.(dict.AggHandle)
				l.kernels["abtree.rangeagg"] = kernel{batch: 16, run: func(n int) uint64 {
					for i := 0; i < n; i++ {
						lo, _ := sg.next()
						a, err := ah.RangeAgg(lo, lo+ladderScanLen)
						l.tl.attempted++
						if err != nil || a.Count > ladderScanLen || (a.Count > 0 && (a.Min < lo || a.Max >= lo+ladderScanLen)) {
							l.tl.failed++
						}
					}
					return uint64(n)
				}}
			}
		}
	}

	// The public package: the facade over the same (a,b)-tree, then what
	// routing through 8 shards, atomic cross-shard reads, asynchronous
	// batching and the observability layer each add to it. ShardKeySpan
	// sends every ladder key to shard 0, so the tree under the router has
	// the size of the unsharded one and the difference is the shard layer.
	public := func(name string, cfg htmtree.Config, sharded bool) (*htmtree.Tree, error) {
		mk := htmtree.NewABTree
		if sharded {
			mk = htmtree.NewShardedABTree
		}
		t, err := mk(cfg)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", name, err)
		}
		return t, nil
	}
	for _, pt := range []struct {
		name    string
		cfg     htmtree.Config
		sharded bool
	}{
		{"public", htmtree.Config{}, false},
		{"shard", htmtree.Config{Shards: 8, ShardKeySpan: 8 * (ladderKeys + 1)}, true},
		{"shard_atomic", htmtree.Config{Shards: 8, ShardKeySpan: 8 * (ladderKeys + 1), AtomicRangeQueries: true}, true},
		{"obs", htmtree.Config{Observability: &htmtree.ObsConfig{}}, false},
	} {
		t, err := public(pt.name, pt.cfg, pt.sharded)
		if err != nil {
			return nil, err
		}
		treeRung(pt.name, t.NewHandle(), t.KeySum)
	}

	// Every call timed, for the tracing overhead.
	tt, err := public("timed", htmtree.Config{}, false)
	if err != nil {
		return nil, err
	}
	th0 := tt.NewHandle()
	l.kernels["timed"] = kernel{batch: 32, run: cycle(timedTree{th0, &hist{}}, gen(), warmed("timed", th0, tt.KeySum))}

	// AsyncHandle: operations are enqueued and their futures collected
	// when the buffer flushes itself at batchMaxOps.
	at, err := public("async", htmtree.Config{BatchMaxOps: batchMaxOps}, false)
	if err != nil {
		return nil, err
	}
	var drain func()
	l.finals = append(l.finals, func() error { drain(); return nil }) // before the checksum comparison warmed registers
	atl := warmed("async", at.NewHandle(), at.KeySum)
	ah := at.NewAsyncHandle()
	ag := gen()
	var futs [batchMaxOps]htmtree.PointFuture
	var kinds [batchMaxOps]opKind
	var keys [batchMaxOps]uint64
	pending := 0
	collect := func() {
		for i := 0; i < pending; i++ {
			v, ok := futs[i].Wait()
			switch kinds[i] {
			case opInsert:
				atl.insert(keys[i], v, ok)
			case opDelete:
				atl.delete(keys[i], v, ok)
			default:
				atl.search(keys[i], v, ok)
			}
		}
		pending = 0
	}
	enqueue := func(kind opKind, key uint64, f htmtree.PointFuture) {
		futs[pending], kinds[pending], keys[pending] = f, kind, key
		if pending++; pending == batchMaxOps {
			collect()
		}
	}
	l.kernels["async"] = kernel{batch: 32, run: func(n int) uint64 {
		for i := 0; i < n; i++ {
			kind, key := ag.next()
			if kind == opInsert {
				enqueue(kind, key, ah.Insert(key, valueOf(key)))
			} else {
				enqueue(kind, key, ah.Delete(key))
			}
			enqueue(opSearch, key, ah.Search(key))
		}
		return uint64(2 * n)
	}}
	drain = func() { ah.Flush(); collect() }

	for _, name := range ladderRungs {
		if _, ok := l.kernels[name]; !ok {
			return nil, fmt.Errorf("ladder: no kernel for rung %q", name)
		}
	}
	return l, nil
}

// timedTree brackets every call with the benchmark's own clock reads.
type timedTree struct {
	h   *htmtree.Handle
	lat *hist
}

func (t timedTree) Insert(key, val uint64) (uint64, bool) {
	t0 := time.Now()
	old, existed := t.h.Insert(key, val)
	t.lat.record(uint64(time.Since(t0)))
	return old, existed
}

func (t timedTree) Delete(key uint64) (uint64, bool) {
	t0 := time.Now()
	old, existed := t.h.Delete(key)
	t.lat.record(uint64(time.Since(t0)))
	return old, existed
}

func (t timedTree) Search(key uint64) (uint64, bool) {
	t0 := time.Now()
	val, found := t.h.Search(key)
	t.lat.record(uint64(time.Since(t0)))
	return val, found
}
