package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"htmtree"
)

// params is the shape of one run. A run measures a workload in rounds:
// each round builds a fresh tree, prefills it, warms up for one untimed
// slice and then runs pairs of slices — one against the tree, one of
// the reference kernel, the order alternating pair by pair.
type params struct {
	slice    time.Duration // tree slice
	refSlice time.Duration // reference slice
	rounds   int
	pairs    int           // per round
	setups   int           // per round: the last tree is measured, the others only give setup_s more samples
	setupRef time.Duration // reference slice after each set-up
	// ladder: reps interleaved slices of ladderSlice per rung.
	ladderSlice time.Duration
	ladderReps  int
}

const (
	sliceLen       = 250 * time.Millisecond
	refSliceLen    = 50 * time.Millisecond // the kernel has no regimes of its own: a short slice tells how fast the CPUs are right now
	pairsPerRound  = 12
	sampleEvery    = 16 // point operations are timed on every 16th call
	setupsPerRound = 3
	setupRefLen    = 25 * time.Millisecond
	ladderReps     = 21
	ladderSliceMax = 100 * time.Millisecond
)

// plan turns the --seconds budget into rounds and pairs. The slice
// length is fixed; a smaller budget buys fewer rounds, never shorter
// slices. A traced run spends half its budget on the workload (for the
// counters) and half on the ladder.
func plan(seconds int, trace bool) params {
	budget := time.Duration(seconds) * time.Second
	p := params{slice: sliceLen, refSlice: refSliceLen, pairs: pairsPerRound, setups: setupsPerRound, setupRef: setupRefLen}
	if trace {
		budget /= 2
		p.ladderReps = ladderReps
		p.ladderSlice = budget / time.Duration(ladderReps*len(ladderRungs))
		if p.ladderSlice > ladderSliceMax {
			p.ladderSlice = ladderSliceMax
		}
	}
	total := int(budget / (p.slice + p.refSlice))
	if total < 1 {
		total = 1
	}
	p.rounds = (total + p.pairs/2) / p.pairs
	if p.rounds < 1 {
		p.rounds = 1
	}
	p.pairs = total / p.rounds
	return p
}

// smokeParams exercises every code path in well under a second.
func smokeParams() params {
	return params{
		slice: 20 * time.Millisecond, refSlice: 5 * time.Millisecond, rounds: 2, pairs: 1, setups: 1, setupRef: 2 * time.Millisecond,
		ladderSlice: 2 * time.Millisecond, ladderReps: 3,
	}
}

// pointTree is what a point-operation worker drives: the public handle,
// a reference tree, or (in the ladder) an internal handle.
type pointTree interface {
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	Search(key uint64) (uint64, bool)
}

// doPoint issues the generator's next operation and checks its result.
func doPoint(t pointTree, g *opGen, tl *tally) {
	kind, key := g.next()
	switch kind {
	case opInsert:
		old, existed := t.Insert(key, valueOf(key))
		tl.insert(key, old, existed)
	case opDelete:
		old, existed := t.Delete(key)
		tl.delete(key, old, existed)
	default:
		val, found := t.Search(key)
		tl.search(key, val, found)
	}
}

// worker is one closed-loop client: it issues its next call when the
// previous one returns.
type worker struct {
	role  role
	h     *htmtree.Handle
	ops   opGen
	scans scanGen
	tl    tally
	out   []htmtree.KV
	ref   refKernel

	// results of the last slice
	lat     hist
	calls   uint64
	work    uint64 // calls for a point worker, keys returned for a scanner, reference operations in a reference slice
	elapsed time.Duration
}

// pointSlice runs point operations against t for at least dur, timing
// every sampleEvery-th call.
func (w *worker) pointSlice(t pointTree, g *opGen, tl *tally, dur time.Duration) {
	w.lat.reset()
	var calls uint64
	start := time.Now()
	for {
		for i := 0; i < sampleEvery-1; i++ {
			doPoint(t, g, tl)
		}
		t0 := time.Now()
		doPoint(t, g, tl)
		t1 := time.Now()
		w.lat.record(uint64(t1.Sub(t0)))
		calls += sampleEvery
		if el := t1.Sub(start); el >= dur {
			w.calls, w.work, w.elapsed = calls, calls, el
			return
		}
	}
}

// scanSlice runs range queries for at least dur, timing every call.
func (w *worker) scanSlice(dur time.Duration) {
	w.lat.reset()
	var calls, keys uint64
	start := time.Now()
	t0 := start
	for {
		lo, hi := w.scans.next()
		w.out = w.h.RangeQuery(lo, hi, w.out[:0])
		t1 := time.Now()
		w.lat.record(uint64(t1.Sub(t0)))
		c := scanCheck{lo: lo, hi: hi}
		for _, p := range w.out {
			c.elem(p.Key, p.Val)
		}
		w.tl.scan(&c)
		calls++
		keys += uint64(len(w.out))
		t0 = time.Now()
		if el := t0.Sub(start); el >= dur {
			w.calls, w.work, w.elapsed = calls, keys, el
			return
		}
	}
}

func (w *worker) treeSlice(dur time.Duration) {
	if w.role.scanLen > 0 {
		w.scanSlice(dur)
	} else {
		w.pointSlice(w.h, &w.ops, &w.tl, dur)
	}
}

// refSlice runs the reference kernel for at least dur.
func (w *worker) refSlice(dur time.Duration) {
	var n uint64
	start := time.Now()
	for {
		w.ref.run(refBatch)
		n += refBatch
		if el := time.Since(start); el >= dur {
			w.calls, w.work, w.elapsed = n, n, el
			return
		}
	}
}

func (w *worker) rate() float64 { return float64(w.work) / w.elapsed.Seconds() }

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// gang runs f on all workers at once and returns the number of heap
// allocations made while they ran. The goroutines are started first and
// held at a barrier, so their own creation is not counted.
func gang(ws []*worker, f func(*worker)) (mallocs uint64) {
	var arrived atomic.Int32
	var release atomic.Bool
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			for !release.Load() {
				runtime.Gosched()
			}
			f(w)
		}()
	}
	for int(arrived.Load()) < len(ws) {
		runtime.Gosched()
	}
	m0 := mallocCount()
	release.Store(true)
	wg.Wait()
	return mallocCount() - m0
}

// sliceSample is what one pair of slices yields: the tree slice's
// per-worker rates and latency quantiles (ns) and the reference slice's
// per-worker rate.
type sliceSample struct {
	refRate            float64 // reference ops/s per worker, mean over workers
	pointRate          float64 // point ops/s, mean over the point-op workers
	pointP50, pointP99 float64
	w1Rate             float64 // worker 1: point ops/s, or keys returned/s for a scanner
	w1P50, w1P99       float64
}

// Counters read as Tree.Stats deltas over the measured slices.
const (
	cFast = iota
	cMiddle
	cFallback
	cCommits
	cAborts
	cConflict
	cCapacity
	cExplicit
	cSpurious
	cBackoffs
	cCapSkips
	cDemotions
	cRQAttempts
	cRQRetries
	cRQEscalations
	numCounters
)

type counters [numCounters]uint64

func readCounters(t *htmtree.Tree) counters {
	s := t.Stats()
	c := counters{
		cFast: s.Ops.Fast, cMiddle: s.Ops.Middle, cFallback: s.Ops.Fallback,
		cCommits:  s.TxCommits.Total(),
		cAborts:   s.TxAborts.Total(),
		cBackoffs: s.Policy.Backoffs, cCapSkips: s.Policy.CapacitySkips, cDemotions: s.Policy.Demotions,
		cRQAttempts: s.Range.Attempts, cRQRetries: s.Range.Retries, cRQEscalations: s.Range.Escalations,
	}
	for k, n := range s.AbortCauses { // "path/cause"
		switch k[strings.IndexByte(k, '/')+1:] {
		case "conflict":
			c[cConflict] += n
		case "capacity":
			c[cCapacity] += n
		case "explicit":
			c[cExplicit] += n
		case "spurious":
			c[cSpurious] += n
		}
	}
	return c
}

// runResult is everything one run of one workload measured.
type runResult struct {
	slices    []sliceSample
	setupS    []float64 // params.setups per round: seconds at the nominal CPU speed
	setupRawS []float64 // the same set-ups in wall-clock seconds
	heapMB    []float64 // per round
	ctr       counters  // summed over rounds
	calls     uint64    // calls issued in the measured tree slices
	scans     uint64    // of which range queries
	mallocs   uint64    // heap allocations during the measured tree slices
	pointSamp uint64    // latency samples behind host.point_p50_ns / host.point_p99_ns
	w1Samp    uint64
	tl        tally // every operation issued to a tree under test, prefill and warm-up included
	errs      []string
}

// prefill inserts uniform random keys until the tree holds half the key
// range (random order keeps the unbalanced BST shallow).
func prefill(t pointTree, keys uint64, r rng, tl *tally) {
	g := opGen{r: r, keys: keys, mix: mix{insert: 100}}
	for tl.count < keys/2 {
		doPoint(t, &g, tl)
	}
}

// runWorkload measures wl. The trees see only keys derived from seed.
func runWorkload(wl *workload, seed uint64, p params) *runResult {
	res := &runResult{}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{role: wl.roles[i], ref: refKernel{r: newRNG(seed, uint64(100+i))}}
	}
	gang(ws, func(w *worker) { w.refSlice(p.refSlice) }) // warm the reference kernel once
	for r := 0; r < p.rounds; r++ {
		if err := runRound(wl, seed+uint64(r), p, ws, res); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("round %d: %v", r, err))
		}
	}
	return res
}

// setup builds one round's tree the way a user would — construct, one
// handle per worker, prefill — and points the workers at it.
func setup(wl *workload, seed uint64, ws []*worker) (*htmtree.Tree, error) {
	tree, err := wl.build()
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		w.h = tree.NewHandle()
		w.tl = tally{}
		w.ops = opGen{r: newRNG(seed, uint64(i)), keys: wl.keys, mix: w.role.mix}
		w.scans = scanGen{r: newRNG(seed, uint64(i)), keys: wl.keys, maxLen: w.role.scanLen}
	}
	prefill(ws[0].h, wl.keys, newRNG(seed, 300), &ws[0].tl)
	return tree, nil
}

func runRound(wl *workload, seed uint64, p params, ws []*worker, res *runResult) error {
	runtime.GC()
	heap0 := heapAlloc()

	var tree *htmtree.Tree
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		t, err := setup(wl, seed, ws)
		if err != nil {
			return err
		}
		raw := time.Since(t0).Seconds()
		// Set-up is one thread of allocation-heavy work and its time
		// follows the CPU's speed of the moment, which on this host moves
		// by up to a factor of two. So the kernel runs right after it, on
		// one thread too, and the set-up is reported in seconds at the
		// nominal speed: a change that moves work into set-up shows, a
		// slow minute of the host does not.
		ws[0].refSlice(p.setupRef)
		res.setupRawS = append(res.setupRawS, raw)
		res.setupS = append(res.setupS, raw*ws[0].rate()/refNominal)
		if tree = t; i < p.setups-1 { // a dropped tree's prefill was checked too
			res.tl.attempted += ws[0].tl.attempted
			res.tl.failed += ws[0].tl.failed
		}
	}

	gang(ws, func(w *worker) { w.treeSlice(p.slice) }) // warm-up, untimed

	c0 := readCounters(tree)
	for i := 0; i < p.pairs; i++ {
		var s sliceSample
		if i%2 == 0 {
			measureTree(ws, p.slice, &s, res)
			measureRef(ws, p.refSlice, &s)
		} else {
			measureRef(ws, p.refSlice, &s)
			measureTree(ws, p.slice, &s, res)
		}
		res.slices = append(res.slices, s)
	}
	c1 := readCounters(tree)
	for i := range res.ctr {
		res.ctr[i] += c1[i] - c0[i]
	}

	var round tally
	for _, w := range ws {
		round.add(w.tl)
	}
	sum, count := tree.KeySum()
	err := round.checkFinal(sum, count, tree.CheckInvariants())
	if err != nil {
		round.failed = round.attempted // a corrupt tree taints every result it gave
	}
	res.tl.attempted += round.attempted
	res.tl.failed += round.failed

	runtime.GC()
	res.heapMB = append(res.heapMB, float64(int64(heapAlloc()-heap0))/(1<<20))
	runtime.KeepAlive(tree)
	for _, w := range ws {
		w.h = nil
	}
	return err
}

// measureRef runs one slice of the reference kernel on every worker.
func measureRef(ws []*worker, dur time.Duration, s *sliceSample) {
	gang(ws, func(w *worker) { w.refSlice(dur) })
	for _, w := range ws {
		s.refRate += w.rate() / workers
	}
}

// measureTree runs one measured slice against the tree under test.
func measureTree(ws []*worker, dur time.Duration, s *sliceSample, res *runResult) {
	res.mallocs += gang(ws, func(w *worker) { w.treeSlice(dur) })
	var point hist
	var pointWorkers float64
	for _, w := range ws {
		res.calls += w.calls
		if w.role.scanLen > 0 {
			res.scans += w.calls
			continue
		}
		point.merge(&w.lat)
		s.pointRate += w.rate()
		pointWorkers++
	}
	s.pointRate /= pointWorkers
	s.pointP50, s.pointP99 = point.quantile(0.50), point.quantile(0.99)
	res.pointSamp += point.n
	w1 := ws[1]
	s.w1Rate = w1.rate()
	s.w1P50, s.w1P99 = w1.lat.quantile(0.50), w1.lat.quantile(0.99)
	res.w1Samp += w1.lat.n
}
