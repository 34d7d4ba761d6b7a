package llxscx

import (
	"sync"
	"testing"

	"htmtree/internal/htm"
)

// tnode is a minimal Data-record: an immutable payload guarded by a Hdr.
type tnode struct {
	hdr Hdr
	val uint64
}

// troot is a Data-record with one mutable child pointer, the smallest
// structure on which the tree update template is exercisable.
type troot struct {
	hdr   Hdr
	child htm.Ref[tnode]
}

// tn builds a tnode.
func tn(val uint64) *tnode { return &tnode{val: val} }

func newChain() (*troot, *tnode) {
	c := tn(0)
	r := &troot{}
	r.child.Set(nil, c)
	return r, c
}

func TestSCXOBasic(t *testing.T) {
	t.Parallel()
	root, c0 := newChain()

	var seen *tnode
	pi, st := LLX(nil, &root.hdr, func() { seen = root.child.Get(nil) })
	if st != StatusOK {
		t.Fatalf("LLX(root) = %v, want ok", st)
	}
	if seen != c0 {
		t.Fatal("snapshot did not observe initial child")
	}
	ci, st := LLX(nil, &c0.hdr, nil)
	if st != StatusOK {
		t.Fatalf("LLX(child) = %v, want ok", st)
	}

	c1 := tn(c0.val + 1)
	ok := SCXO(
		[]*Hdr{&root.hdr, &c0.hdr},
		[]*Info{pi, ci},
		[]*Hdr{&c0.hdr},
		&root.child, c0, c1,
	)
	if !ok {
		t.Fatal("SCXO failed with no contention")
	}
	if got := root.child.Get(nil); got != c1 {
		t.Fatalf("child = %v, want new node", got)
	}
	if !c0.hdr.Marked(nil) {
		t.Fatal("finalized record not marked")
	}
	if _, st := LLX(nil, &c0.hdr, nil); st != StatusFinalized {
		t.Fatalf("LLX(finalized) = %v, want finalized", st)
	}
	// The root must remain LLX-able (it was in V but not in R).
	if _, st := LLX(nil, &root.hdr, nil); st != StatusOK {
		t.Fatalf("LLX(root) after SCX = %v, want ok", st)
	}
}

func TestSCXOStaleLinkFails(t *testing.T) {
	t.Parallel()
	root, c0 := newChain()

	pi, _ := LLX(nil, &root.hdr, nil)
	ci, _ := LLX(nil, &c0.hdr, nil)

	// Another operation replaces the child first.
	pi2, _ := LLX(nil, &root.hdr, nil)
	ci2, _ := LLX(nil, &c0.hdr, nil)
	mid := tn(100)
	if !SCXO([]*Hdr{&root.hdr, &c0.hdr}, []*Info{pi2, ci2}, []*Hdr{&c0.hdr}, &root.child, c0, mid) {
		t.Fatal("setup SCX failed")
	}

	// The SCX with stale linked LLXs must fail and leave memory intact.
	stale := tn(1)
	if SCXO([]*Hdr{&root.hdr, &c0.hdr}, []*Info{pi, ci}, []*Hdr{&c0.hdr}, &root.child, c0, stale) {
		t.Fatal("SCX with stale linked LLX succeeded")
	}
	if got := root.child.Get(nil); got != mid {
		t.Fatalf("child = %v, want %v", got, mid)
	}
}

// TestLLXHelpsInProgressSCX freezes a record for a stalled SCX and checks
// that a subsequent LLX helps the operation to completion.
func TestLLXHelpsInProgressSCX(t *testing.T) {
	t.Parallel()
	root, c0 := newChain()

	pi, _ := LLX(nil, &root.hdr, nil)
	ci, _ := LLX(nil, &c0.hdr, nil)
	c1 := tn(7)

	// Build the SCX-record by hand and freeze only the first record,
	// simulating a thread that crashed mid-SCX.
	rec := &SCXRecord{
		nv:  2,
		nr:  1,
		fld: &fieldOp[tnode]{ref: &root.child, old: c0, new: c1},
	}
	rec.state.Store(StateInProgress)
	rec.v = [MaxV]*Hdr{&root.hdr, &c0.hdr}
	rec.infos = [MaxV]*Info{pi, ci}
	rec.r = [MaxV]*Hdr{&c0.hdr}
	rec.self.Rec = rec
	if !root.hdr.info.CAS(nil, pi, &rec.self) {
		t.Fatal("manual freeze failed")
	}

	// LLX on the frozen record must help the SCX finish, then report
	// Fail (the caller retries and will then see the new state).
	if _, st := LLX(nil, &root.hdr, nil); st != StatusFail {
		t.Fatalf("LLX(frozen) = %v, want fail", st)
	}
	if rec.state.Load() != StateCommitted {
		t.Fatalf("record state = %d, want committed", rec.state.Load())
	}
	if got := root.child.Get(nil); got != c1 {
		t.Fatal("helped SCX did not apply the field update")
	}
	if !c0.hdr.Marked(nil) {
		t.Fatal("helped SCX did not mark the finalized record")
	}
	// And the structure is operable afterwards.
	if _, st := LLX(nil, &root.hdr, nil); st != StatusOK {
		t.Fatalf("LLX after helping = %v, want ok", st)
	}
}

// TestTagFreshness: every tag is a pointer no earlier call returned, and
// tags come tagChunk to an allocation. Not parallel: AllocsPerRun counts
// the whole process's allocations.
func TestTagFreshness(t *testing.T) {
	var tags TagSource
	seen := make(map[*Info]bool)
	for i := 0; i < 1000; i++ {
		in := tags.Next()
		if in.Rec != nil {
			t.Fatal("tagged info has Rec set")
		}
		if seen[in] {
			t.Fatal("TagSource returned a repeated pointer")
		}
		seen[in] = true
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := 0; i < tagChunk; i++ {
			tags.Next()
		}
	}); a > 1 {
		t.Fatalf("%d tags took %v allocations, want at most 1", tagChunk, a)
	}
}

func TestSCXHTMBasicAndP1(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	var tags TagSource
	root, c0 := newChain()

	var infosSeen []*Info
	cur := c0
	for i := 0; i < 3; i++ {
		var snap *tnode
		pi, st := LLX(nil, &root.hdr, func() { snap = root.child.Get(nil) })
		if st != StatusOK {
			t.Fatalf("LLX = %v", st)
		}
		ci, st := LLX(nil, &cur.hdr, nil)
		if st != StatusOK {
			t.Fatalf("LLX(child) = %v", st)
		}
		if snap != cur {
			t.Fatal("unexpected child")
		}
		next := tn(cur.val + 1)
		ok, ab := SCXHTM(th, htm.PathFast, &tags,
			[]*Hdr{&root.hdr, &cur.hdr}, []*Info{pi, ci},
			[]*Hdr{&cur.hdr}, &root.child, next)
		if !ok {
			t.Fatalf("SCXHTM failed: %+v", ab)
		}
		infosSeen = append(infosSeen, root.hdr.InfoValue(nil))
		cur = next
	}
	if cur.val != 3 {
		t.Fatalf("chain value = %d, want 3", cur.val)
	}
	// P1: each successful SCX left a fresh info value.
	for i := 0; i < len(infosSeen); i++ {
		for j := i + 1; j < len(infosSeen); j++ {
			if infosSeen[i] == infosSeen[j] {
				t.Fatal("info value repeated across SCXs (P1 violated)")
			}
		}
	}
}

func TestSCXHTMDetectsStaleLink(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	var tags TagSource
	root, c0 := newChain()

	pi, _ := LLX(nil, &root.hdr, nil)
	ci, _ := LLX(nil, &c0.hdr, nil)

	// Intervening SCXO invalidates the links.
	pi2, _ := LLX(nil, &root.hdr, nil)
	ci2, _ := LLX(nil, &c0.hdr, nil)
	mid := &tnode{val: 50}
	if !SCXO([]*Hdr{&root.hdr, &c0.hdr}, []*Info{pi2, ci2}, []*Hdr{&c0.hdr}, &root.child, c0, mid) {
		t.Fatal("setup SCX failed")
	}

	ok, ab := SCXHTM(th, htm.PathFast, &tags,
		[]*Hdr{&root.hdr, &c0.hdr}, []*Info{pi, ci},
		[]*Hdr{&c0.hdr}, &root.child, &tnode{val: 1})
	if ok {
		t.Fatal("SCXHTM with stale link committed")
	}
	if ab.Cause != htm.CauseExplicit || ab.Code != AbortCodeSCX {
		t.Fatalf("abort = %+v, want explicit %#x", ab, AbortCodeSCX)
	}
	if got := root.child.Get(nil); got != mid {
		t.Fatal("failed SCXHTM changed memory")
	}
}

func TestSCXInTx(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	var tags TagSource
	root, c0 := newChain()

	ok, ab := th.Atomic(htm.PathMiddle, func(tx *htm.Tx) {
		var c *tnode
		_, st := LLX(tx, &root.hdr, func() { c = root.child.Get(tx) })
		if st != StatusOK {
			tx.Abort(1)
		}
		if _, st := LLX(tx, &c.hdr, nil); st != StatusOK {
			tx.Abort(1)
		}
		SCXInTx(tx, &tags, []*Hdr{&root.hdr, &c.hdr}, []*Hdr{&c.hdr})
		root.child.Set(tx, tn(c.val+1))
	})
	if !ok {
		t.Fatalf("in-tx SCX failed: %+v", ab)
	}
	if got := root.child.Get(nil); got.val != 1 {
		t.Fatalf("child val = %d, want 1", got.val)
	}
	if !c0.hdr.Marked(nil) {
		t.Fatal("in-tx SCX did not mark the removed record")
	}
	if _, st := LLX(nil, &c0.hdr, nil); st != StatusFinalized {
		t.Fatal("removed record not finalized for fallback-path readers")
	}
}

func TestLLXInTxNoHelping(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	th := tm.NewThread()
	root, c0 := newChain()

	// Freeze root for a stalled SCX as in TestLLXHelpsInProgressSCX.
	pi, _ := LLX(nil, &root.hdr, nil)
	ci, _ := LLX(nil, &c0.hdr, nil)
	rec := &SCXRecord{nv: 2, nr: 1,
		fld: &fieldOp[tnode]{ref: &root.child, old: c0, new: tn(9)}}
	rec.state.Store(StateInProgress)
	rec.v = [MaxV]*Hdr{&root.hdr, &c0.hdr}
	rec.infos = [MaxV]*Info{pi, ci}
	rec.r = [MaxV]*Hdr{&c0.hdr}
	rec.self.Rec = rec
	if !root.hdr.info.CAS(nil, pi, &rec.self) {
		t.Fatal("manual freeze failed")
	}

	ok, _ := th.Atomic(htm.PathMiddle, func(tx *htm.Tx) {
		if _, st := LLX(tx, &root.hdr, nil); st != StatusFail {
			t.Errorf("in-tx LLX on frozen record = %v, want fail", st)
		}
		tx.Abort(1)
	})
	if ok {
		t.Fatal("probe transaction committed unexpectedly")
	}
	if rec.state.Load() != StateInProgress {
		t.Fatal("in-tx LLX helped a fallback SCX (it must not)")
	}
}

// tleaf is a Data-record whose field no SCX writes, as a leaf's: only an
// in-place edit in a transaction that retags it changes val.
type tleaf struct {
	hdr Hdr
	val htm.Word
}

// stoppedSCX builds the SCX-record of an SCXO that replaces root's child
// c0 with c1 and finalizes c0, and runs it by hand as far as freezing
// both records — and, with marked, its mark step too: the owner stopped
// before its update CAS.
func stoppedSCX(t *testing.T, root *troot, c0, c1 *tnode, marked bool) *SCXRecord {
	t.Helper()
	pi, _ := LLX(nil, &root.hdr, nil)
	ci, _ := LLX(nil, &c0.hdr, nil)
	rec := &SCXRecord{nv: 2, nr: 1,
		fld: &fieldOp[tnode]{ref: &root.child, old: c0, new: c1}}
	rec.state.Store(StateInProgress)
	rec.v = [MaxV]*Hdr{&root.hdr, &c0.hdr}
	rec.infos = [MaxV]*Info{pi, ci}
	rec.r = [MaxV]*Hdr{&c0.hdr}
	rec.self.Rec = rec
	if !root.hdr.info.CAS(nil, pi, &rec.self) || !c0.hdr.info.CAS(nil, ci, &rec.self) {
		t.Fatal("manual freeze failed")
	}
	if marked {
		rec.allFrozen.Store(true)
		c0.hdr.marked.Set(nil, 1)
	}
	return rec
}

// TestLLXReadQuiet: a record nothing touches reads StatusOK with its
// fields, and so does one frozen for an SCX still in progress that has
// not marked it — without helping that SCX, whose record LLXRead never
// looks at.
func TestLLXReadQuiet(t *testing.T) {
	t.Parallel()
	l := &tleaf{}
	l.val.Init(7)
	var got uint64
	if st := LLXRead(&l.hdr, func() { got = l.val.Get(nil) }); st != StatusOK || got != 7 {
		t.Fatalf("LLXRead(quiet) = %v, read %d; want ok, 7", st, got)
	}

	root, c0 := newChain()
	rec := stoppedSCX(t, root, c0, tn(1), false)
	called := false
	if st := LLXRead(&c0.hdr, func() { called = true }); st != StatusOK || !called {
		t.Fatalf("LLXRead(frozen, unmarked) = %v, fields read %v; want ok, true", st, called)
	}
	if rec.state.Load() != StateInProgress || root.child.Get(nil) != c0 {
		t.Fatal("LLXRead of an unmarked record helped its SCX")
	}
}

// TestLLXReadFailsOnRetag: a middle-path edit — a transaction that
// retags the record (SCXInTx with R empty) and writes its field — that
// commits between LLXRead's reads of info fails the snapshot.
func TestLLXReadFailsOnRetag(t *testing.T) {
	t.Parallel()
	th := htm.New(htm.Config{}).NewThread()
	var tags TagSource
	l := &tleaf{}
	var got uint64
	st := LLXRead(&l.hdr, func() {
		got = l.val.Get(nil)
		ok, ab := th.Atomic(htm.PathMiddle, func(tx *htm.Tx) {
			if _, st := LLX(tx, &l.hdr, nil); st != StatusOK {
				tx.Abort(1)
			}
			SCXInTx(tx, &tags, []*Hdr{&l.hdr}, nil)
			l.val.Set(tx, got+1)
		})
		if !ok {
			t.Fatalf("the edit did not commit: %+v", ab)
		}
	})
	if st != StatusFail {
		t.Fatalf("LLXRead with a retag inside its field reads = %v, want fail", st)
	}
	if st := LLXRead(&l.hdr, func() { got = l.val.Get(nil) }); st != StatusOK || got != 1 {
		t.Fatalf("LLXRead after the edit = %v, read %d; want ok, 1", st, got)
	}
}

// TestLLXReadHelpsStoppedSCX: a record an SCXO froze and marked, whose
// owner stopped after the mark step, reads StatusFinalized — and only
// once the read has completed that SCX, so a fallback walk that meets
// the record cannot be held up by the stopped owner.
func TestLLXReadHelpsStoppedSCX(t *testing.T) {
	t.Parallel()
	root, c0 := newChain()
	c1 := tn(1)
	rec := stoppedSCX(t, root, c0, c1, true)
	if st := LLXRead(&c0.hdr, func() {}); st != StatusFinalized {
		t.Fatalf("LLXRead(marked) = %v, want finalized", st)
	}
	if rec.state.Load() != StateCommitted || root.child.Get(nil) != c1 {
		t.Fatalf("after LLXRead: SCX state %d, child swung %v; want committed, true",
			rec.state.Load(), root.child.Get(nil) == c1)
	}
}

// TestMixedPathChainStress is the core interoperability test: threads
// mixing all SCX flavours (fallback SCXO, standalone SCXHTM, and
// whole-operation transactions with SCXInTx) repeatedly replace the
// chain's child with a node holding val+1. Atomicity of the template
// means the final value equals the number of successful SCXs.
func TestMixedPathChainStress(t *testing.T) {
	t.Parallel()
	tm := htm.New(htm.Config{})
	root, _ := newChain()

	const goroutines = 6
	const opsPerG = 3000
	successes := make([]uint64, goroutines)
	var wg sync.WaitGroup

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tm.NewThread()
			var tags TagSource
			for i := 0; i < opsPerG; i++ {
				var ok bool
				switch (g + i) % 3 {
				case 0: // fallback path: original SCX
					ok = chainIncrSCXO(root)
				case 1: // standalone HTM SCX
					ok = chainIncrSCXHTM(th, &tags, root)
				case 2: // whole operation inside one transaction
					ok = chainIncrInTx(th, &tags, root)
				}
				if ok {
					successes[g]++
				}
			}
		}(g)
	}
	wg.Wait()

	var want uint64
	for _, s := range successes {
		want += s
	}
	if want == 0 {
		t.Fatal("no operation succeeded")
	}
	if got := root.child.Get(nil).val; got != want {
		t.Fatalf("final chain value = %d, want %d (successful SCXs)", got, want)
	}
}

func chainIncrSCXO(root *troot) bool {
	var c *tnode
	pi, st := LLX(nil, &root.hdr, func() { c = root.child.Get(nil) })
	if st != StatusOK {
		return false
	}
	ci, st := LLX(nil, &c.hdr, nil)
	if st != StatusOK {
		return false
	}
	next := tn(c.val + 1)
	return SCXO([]*Hdr{&root.hdr, &c.hdr}, []*Info{pi, ci}, []*Hdr{&c.hdr},
		&root.child, c, next)
}

func chainIncrSCXHTM(th *htm.Thread, tags *TagSource, root *troot) bool {
	var c *tnode
	pi, st := LLX(nil, &root.hdr, func() { c = root.child.Get(nil) })
	if st != StatusOK {
		return false
	}
	ci, st := LLX(nil, &c.hdr, nil)
	if st != StatusOK {
		return false
	}
	next := tn(c.val + 1)
	ok, _ := SCXHTM(th, htm.PathFast, tags,
		[]*Hdr{&root.hdr, &c.hdr}, []*Info{pi, ci}, []*Hdr{&c.hdr},
		&root.child, next)
	return ok
}

func chainIncrInTx(th *htm.Thread, tags *TagSource, root *troot) bool {
	const retryCode = 0x33
	ok, _ := th.Atomic(htm.PathMiddle, func(tx *htm.Tx) {
		var c *tnode
		_, st := LLX(tx, &root.hdr, func() { c = root.child.Get(tx) })
		if st != StatusOK {
			tx.Abort(retryCode)
		}
		if _, st := LLX(tx, &c.hdr, nil); st != StatusOK {
			tx.Abort(retryCode)
		}
		SCXInTx(tx, tags, []*Hdr{&root.hdr, &c.hdr}, []*Hdr{&c.hdr})
		root.child.Set(tx, tn(c.val+1))
	})
	return ok
}

func TestStatusString(t *testing.T) {
	t.Parallel()
	if StatusOK.String() != "ok" || StatusFail.String() != "fail" ||
		StatusFinalized.String() != "finalized" {
		t.Fatal("Status.String mismatch")
	}
}
