package modelcheck

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"htmtree"
)

// Cross-shard atomicity harness. Three deterministic writers run
// concurrently with a reader:
//
//   - Two round-robin writers (one per key region) execute the
//     sequential history step s = 1, 2, 3, ...: insert key
//     w*rrKeys + ((rrStride*s) mod rrKeys) + 1 with value s. The stride
//     is coprime with rrKeys, so consecutive steps land in different
//     shards — exactly the access pattern that tears a non-atomic
//     fan-out. Because the writer is sequential, every consistent cut
//     of the dictionary equals the state after some prefix of its
//     steps, and that state is computable in closed form.
//   - A ring writer walks a token around ringSize keys spread across
//     shards: insert the next key, then delete the current one. Every
//     consistent cut holds exactly one token or two ring-adjacent ones,
//     which makes KeySum tears detectable.
//
// The reader checks every atomic RangeQuery and KeySum result against
// those invariants; any result that matches no prefix of the sequential
// histories is a violation of cross-shard atomicity.
const (
	rrKeys     = 64 // round-robin keys per writer
	rrStride   = 17 // coprime with rrKeys: consecutive steps hop shards
	rrInv      = 49 // rrStride⁻¹ mod rrKeys
	numRR      = 2  // round-robin writers
	ringSize   = 16
	ringBase   = numRR*rrKeys + 1
	ringSpace  = 8 // key distance between ring slots (spans shards)
	atomicSpan = 256
)

func rrKey(w int, s uint64) uint64 {
	return uint64(w)*rrKeys + (rrStride*s)%rrKeys + 1
}

// lastWrite returns the largest step s <= t that wrote key k for
// round-robin writer w, or 0 if no step <= t wrote it.
func lastWrite(w int, k, t uint64) uint64 {
	r := (rrInv * (k - 1 - uint64(w)*rrKeys)) % rrKeys
	if r == 0 {
		r = rrKeys
	}
	if t < r {
		return 0
	}
	return t - (t-r)%rrKeys
}

func ringKey(j int) uint64 { return ringBase + uint64(j)*ringSpace }

func ringIndex(k uint64) (int, bool) {
	if k < ringBase || (k-ringBase)%ringSpace != 0 {
		return 0, false
	}
	j := int((k - ringBase) / ringSpace)
	if j >= ringSize {
		return 0, false
	}
	return j, true
}

// checkRRWindow verifies that the pairs observed for writer w inside
// [lo, hi) match the state after some prefix of w's sequential history.
// The prefix length can exceed the largest observed value by at most
// rrKeys-1 (every window key is rewritten once per cycle), so the
// search is bounded.
func checkRRWindow(w int, lo, hi uint64, obs map[uint64]uint64) error {
	rlo, rhi := uint64(w)*rrKeys+1, uint64(w+1)*rrKeys
	if lo > rlo {
		rlo = lo
	}
	if hi-1 < rhi {
		rhi = hi - 1
	}
	if rlo > rhi {
		return nil // window does not overlap this writer's region
	}
	var maxv uint64
	for _, v := range obs {
		if v > maxv {
			maxv = v
		}
	}
	for t := maxv; t < maxv+rrKeys; t++ {
		match := true
		for k := rlo; k <= rhi; k++ {
			want := lastWrite(w, k, t)
			got, present := obs[k]
			if want == 0 {
				if present {
					match = false
					break
				}
				continue
			}
			if !present || got != want {
				match = false
				break
			}
		}
		if match {
			return nil
		}
	}
	return fmt.Errorf("writer %d window [%d,%d): observed values %v match no prefix of the sequential history (max step %d)",
		w, lo, hi, obs, maxv)
}

// checkRing verifies the observed ring keys form a consistent cut of
// the token walk: exactly one token, or two on ring-adjacent slots.
func checkRing(keys []uint64) error {
	switch len(keys) {
	case 1:
		return nil
	case 2:
		j1, ok1 := ringIndex(keys[0])
		j2, ok2 := ringIndex(keys[1])
		if !ok1 || !ok2 {
			return fmt.Errorf("non-ring keys %v in ring region", keys)
		}
		if j2 == j1+1 || (j1 == 0 && j2 == ringSize-1) {
			return nil
		}
		return fmt.Errorf("ring tokens on non-adjacent slots %d and %d", j1, j2)
	default:
		return fmt.Errorf("ring holds %d tokens, want 1 or 2", len(keys))
	}
}

// pinShare is what a harness case expects of the cross-shard reads it
// checks: every optimistic attempt a pinned transaction, none (the
// dictionary or its trees cannot pin, so the reads sample and validate),
// or some (the reads start pinned and are sent to sampling by capacity
// aborts).
type pinShare int

const (
	pinAll pinShare = iota
	pinSome
	pinNone
)

// atomicityCase is one configuration the cross-shard atomicity
// harnesses run: an 8-shard tree over atomicSpan keys.
type atomicityCase struct {
	name   string
	abtree bool // sharded (a,b)-tree instead of the sharded BST
	pins   pinShare
	torn   bool           // control: AtomicRangeQueries off
	cfg    htmtree.Config // Algorithm (default 3-path), capacities, ...
}

func (c atomicityCase) build(t *testing.T) *htmtree.Tree {
	t.Helper()
	cfg := c.cfg
	cfg.Shards, cfg.ShardKeySpan, cfg.AtomicRangeQueries = 8, atomicSpan, !c.torn
	if cfg.Algorithm == "" {
		cfg.Algorithm = htmtree.ThreePath
	}
	mk := htmtree.NewShardedBST
	if c.abtree {
		mk = htmtree.NewShardedABTree
	}
	tree, err := mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// startAtomicityWriters starts the two round-robin writers and the ring
// walker on tree and returns, once every writer has made its keys
// present, the function that stops them.
func startAtomicityWriters(tree *htmtree.Tree) (stop func()) {
	done := make(chan struct{})
	var wg, ready sync.WaitGroup
	ready.Add(numRR + 1)
	for w := 0; w < numRR; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tree.NewHandle()
			var s uint64
			for s = 1; s <= rrKeys; s++ { // warmup: every key present
				h.Insert(rrKey(w, s), s)
			}
			ready.Done()
			for s = rrKeys + 1; ; s++ {
				select {
				case <-done:
					return
				default:
				}
				h.Insert(rrKey(w, s), s)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tree.NewHandle()
		h.Insert(ringKey(0), ringKey(0))
		ready.Done()
		for j := 0; ; j = (j + 1) % ringSize {
			select {
			case <-done:
				return
			default:
			}
			next := (j + 1) % ringSize
			h.Insert(ringKey(next), ringKey(next))
			h.Delete(ringKey(j))
		}
	}()
	ready.Wait()
	return func() { close(done); wg.Wait() }
}

// pinMeter accumulates the outcomes of the cross-shard reads made
// between its begin and end calls.
type pinMeter struct {
	tree      *htmtree.Tree
	from, sum htmtree.RangeQueryStats
}

func (m *pinMeter) begin() { m.from = m.tree.Stats().Range }
func (m *pinMeter) end() {
	st := m.tree.Stats().Range
	m.sum.Attempts += st.Attempts - m.from.Attempts
	m.sum.Pinned += st.Pinned - m.from.Pinned
	m.sum.Escalations += st.Escalations - m.from.Escalations
}

// check fails the test unless the metered reads ran the protocol the
// case expects — so a case meant to exercise pinned transactions cannot
// pass by silently sampling and validating, or the other way round. A
// read that escalates finishes under the gates with one plain read,
// whatever it was before; that attempt is not pinned. Unpinned attempts
// beyond one per escalation were sampled by choice.
func (m *pinMeter) check(t *testing.T, want pinShare) {
	t.Helper()
	sampled := m.sum.Attempts - m.sum.Pinned
	gated := m.sum.Escalations
	var ok bool
	switch want {
	case pinAll:
		ok = m.sum.Pinned > 0 && sampled <= gated
	case pinSome:
		ok = m.sum.Pinned > 0 && sampled > gated
	case pinNone:
		ok = m.sum.Pinned == 0 && sampled > 0
	}
	if !ok {
		t.Errorf("cross-shard reads %+v: want %s of the optimistic attempts pinned",
			m.sum, [...]string{"all", "some but not all", "none"}[want])
	}
}

// afterAtomicityRun checks what every harness run must leave behind.
func afterAtomicityRun(t *testing.T, c atomicityCase, tree *htmtree.Tree) {
	t.Helper()
	if c.cfg.WriteCapacity == fallbackWriteCapacity {
		if st := tree.Stats(); st.Ops.Fallback == 0 || st.Range.Pinned == 0 {
			t.Errorf("fallback-writers harness: %d fallback-path operations, %d pinned attempts: read-only transactions were never raced against live SCXs",
				st.Ops.Fallback, st.Range.Pinned)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Errorf("post-run invariants: %v", err)
	}
}

// runAtomicityHarness starts the writers, then runs iters reader checks
// of RangeQuery and KeySum, returning the observed cross-shard atomicity
// violations. The invariants are independent of the configuration: every
// consistent cut satisfies them regardless of which shard owns which key
// and of how the read was made atomic.
func runAtomicityHarness(t *testing.T, c atomicityCase, iters int) []error {
	t.Helper()
	tree := c.build(t)
	stop := startAtomicityWriters(tree)

	var violations []error
	record := func(err error) {
		if err != nil && len(violations) < 10 {
			violations = append(violations, err)
		}
	}
	h := tree.NewHandle()
	meter := pinMeter{tree: tree}
	rng := rand.New(rand.NewSource(0xa70b1c))
	for i := 0; i < iters; i++ {
		meter.begin()
		// Full-span query: every writer's region plus the ring.
		out := h.RangeQuery(1, atomicSpan+1, nil)
		obs := make([]map[uint64]uint64, numRR)
		for w := range obs {
			obs[w] = make(map[uint64]uint64)
		}
		var ringKeys []uint64
		for _, kv := range out {
			if kv.Key <= numRR*rrKeys {
				obs[int((kv.Key-1)/rrKeys)][kv.Key] = kv.Val
			} else {
				ringKeys = append(ringKeys, kv.Key)
			}
		}
		for w := 0; w < numRR; w++ {
			record(checkRRWindow(w, 1, atomicSpan+1, obs[w]))
		}
		record(checkRing(ringKeys))

		// Partial multi-shard window inside the round-robin regions.
		lo := uint64(rng.Intn(numRR*rrKeys-64)) + 1
		hi := lo + 48 + uint64(rng.Intn(80))
		pobs := make([]map[uint64]uint64, numRR)
		for w := range pobs {
			pobs[w] = make(map[uint64]uint64)
		}
		for _, kv := range h.RangeQuery(lo, hi, nil) {
			if kv.Key <= numRR*rrKeys {
				pobs[int((kv.Key-1)/rrKeys)][kv.Key] = kv.Val
			}
		}
		for w := 0; w < numRR; w++ {
			record(checkRRWindow(w, lo, hi, pobs[w]))
		}
		meter.end()

		// KeySum: the fixed writer regions plus 1 or 2 adjacent tokens.
		if i%4 == 0 {
			sum, count := tree.KeySum()
			base := uint64(numRR*rrKeys) * uint64(numRR*rrKeys+1) / 2
			switch count {
			case numRR*rrKeys + 1:
				if _, ok := ringIndex(sum - base); !ok {
					record(fmt.Errorf("KeySum (%d,%d): extra mass %d is no single ring token", sum, count, sum-base))
				}
			case numRR*rrKeys + 2:
				ok := false
				for j := 0; j < ringSize; j++ {
					n := (j + 1) % ringSize
					if sum-base == ringKey(j)+ringKey(n) {
						ok = true
						break
					}
				}
				if !ok {
					record(fmt.Errorf("KeySum (%d,%d): extra mass %d is no adjacent token pair", sum, count, sum-base))
				}
			default:
				record(fmt.Errorf("KeySum count %d, want %d or %d", count, numRR*rrKeys+1, numRR*rrKeys+2))
			}
		}
	}
	stop()
	if !c.torn {
		meter.check(t, c.pins)
	}
	afterAtomicityRun(t, c, tree)
	return violations
}

// runAtomicityCases runs one harness over every case, in parallel.
func runAtomicityCases(t *testing.T, what string, cases []atomicityCase, harness func(*testing.T, atomicityCase, int) []error) {
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			iters := 400
			if testing.Short() {
				iters = 80
			}
			if vs := harness(t, c, iters); len(vs) > 0 {
				for _, v := range vs {
					t.Error(v)
				}
				t.Fatalf("%d cross-shard %s atomicity violations", len(vs), what)
			}
		})
	}
}

// smallReadCapacity is a transactional read capacity the point
// operations of a 32-key shard fit and a scan of most of one does not.
const smallReadCapacity = 32

// fallbackWriteCapacity is a transactional write capacity that pins
// writers to the fallback path while readers keep their transactions: a
// BST delete (three cells on the fast path, more on the middle) and every (a,b)-tree update overflow it on both
// transactional paths, so the ring walker — on an (a,b)-tree, every
// writer — commits by SCX with F raised, and the 3-path read-only
// transactions, which write nothing and do not subscribe to F, run
// beside it.
const fallbackWriteCapacity = 2

// TestCrossShardRangeQueryAtomicity runs concurrent updaters against
// cross-shard range queries and key sums with AtomicRangeQueries
// enabled: every result must match some prefix of the writers'
// sequential histories. The cases cover both ways a read is made atomic
// and what decides between them, and each asserts which one its range
// queries took. Pinned transactions: both trees, every algorithm whose
// first path is one transaction. Sampling and validating: the
// algorithms without such a path, and scans that overflow the
// transactional read capacity,
// which start pinned and must leave; and writers pinned to the fallback
// path, beside whose SCXs the pinned read-only transactions run
// unsubscribed. KeySum samples and validates everywhere. Running the same
// harness with atomicity off (TestCrossShardTearingWithoutValidation)
// demonstrates the violations either protocol eliminates.
func TestCrossShardRangeQueryAtomicity(t *testing.T) {
	t.Parallel()
	runAtomicityCases(t, "range query", []atomicityCase{
		{name: "range", pins: pinAll},
		{name: "abtree", abtree: true, pins: pinAll},
		{name: "tle", pins: pinAll, cfg: htmtree.Config{Algorithm: htmtree.TLE}},
		{name: "2-path-con", pins: pinAll, cfg: htmtree.Config{Algorithm: htmtree.TwoPathConc}},
		{name: "2-path-ncon", abtree: true, pins: pinAll, cfg: htmtree.Config{Algorithm: htmtree.TwoPathNCon}},
		{name: "small-capacity", pins: pinSome, cfg: htmtree.Config{ReadCapacity: smallReadCapacity}},
		{name: "fallback-writers", pins: pinAll, cfg: htmtree.Config{WriteCapacity: fallbackWriteCapacity}},
		{name: "fallback-writers-abtree", abtree: true, pins: pinAll, cfg: htmtree.Config{WriteCapacity: fallbackWriteCapacity}},
		{name: "non-htm", pins: pinNone, cfg: htmtree.Config{Algorithm: htmtree.NonHTM}},
		{name: "scx-htm", abtree: true, pins: pinNone, cfg: htmtree.Config{Algorithm: htmtree.SCXHTM}},
	}, runAtomicityHarness)
}

// TestCrossShardTearingWithoutValidation is the control: the same
// harness with cross-shard atomicity off. It documents (rather than
// asserts) the torn results, because whether a tear is observed in a
// finite run depends on scheduling; a run that sees none is skipped, not
// failed.
func TestCrossShardTearingWithoutValidation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("control experiment; skipped in -short")
	}
	vs := runAtomicityHarness(t, atomicityCase{torn: true}, 400)
	if len(vs) == 0 {
		t.Skip("no tearing observed this run (scheduler too serial to demonstrate)")
	}
	t.Logf("without validation: %d violations observed, e.g. %v", len(vs), vs[0])
}
