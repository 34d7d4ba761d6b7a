package engine

import (
	"testing"

	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// pnode is the smallest structure the template runs on: a record with
// one mutable child pointer.
type pnode struct {
	hdr   llxscx.Hdr
	child htm.Ref[pnode]
	val   uint64
}

func newPnode(clk *htm.Clock, val uint64, child *pnode) *pnode {
	n := &pnode{val: val}
	n.hdr.Bind(clk)
	n.child.Bind(clk)
	n.child.Init(child)
	return n
}

// replaceChild is a template update written once against Prims: replace
// root's child by a fresh node holding pr.Val, reporting the old value.
func replaceChild(pr *Prims[pnode], clk *htm.Clock, root *pnode) bool {
	var c *pnode
	ri := pr.LLX(&root.hdr, func() { c = root.child.Get(pr.Tx) })
	if pr.Failed {
		return false
	}
	ci := pr.LLX(&c.hdr, nil)
	if pr.Failed {
		return false
	}
	*pr.Res = Result{Val: c.val, Found: true}
	return pr.SCX(
		[]*llxscx.Hdr{&root.hdr, &c.hdr}, []*llxscx.Info{ri, ci},
		[]*llxscx.Hdr{&c.hdr}, &root.child, c, newPnode(clk, pr.Val, nil))
}

// TestPrimsModesAgree runs the same body in every mode and requires the
// same effect: the child swung, the old child finalized, the result
// delivered where the mode says it goes.
func TestPrimsModesAgree(t *testing.T) {
	for _, m := range []Mode{ModeFast, ModeMiddle, ModeFallback, ModeSCXHTM, ModeHelp} {
		_, th, clk := newEngineThread(t, htm.Config{}, Config{})
		old := newPnode(clk, 7, nil)
		root := newPnode(clk, 0, old)
		var res Result
		pr := &Prims[pnode]{Th: th, Mode: m, Val: 8, Res: &res}
		var d *HelpDesc
		ok := false
		switch m {
		case ModeFast, ModeMiddle:
			committed, ab := th.H.Atomic(htm.PathFast, func(tx *htm.Tx) {
				pr.Tx = tx
				ok = replaceChild(pr, clk, root)
			})
			if !committed {
				t.Fatalf("mode %d: transaction aborted: %+v", m, ab)
			}
		case ModeHelp:
			d = &HelpDesc{Kind: HelpInsert, Val: 8, gen: 2}
			pr.Desc = d
			ok = replaceChild(pr, clk, root)
		default:
			ok = replaceChild(pr, clk, root)
		}
		if !ok || pr.Failed {
			t.Fatalf("mode %d: body returned %v, Failed %v", m, ok, pr.Failed)
		}
		if c := root.child.Get(nil); c == old || c.val != 8 {
			t.Fatalf("mode %d: child not replaced", m)
		}
		if !old.hdr.Marked(nil) {
			t.Fatalf("mode %d: removed node not finalized", m)
		}
		if (res != Result{Val: 7, Found: true}) {
			t.Fatalf("mode %d: result %+v", m, res)
		}
		if m == ModeHelp {
			att := d.attempt.Load()
			if att == nil || att.Rec == nil || !att.terminal() || att.Result != res {
				t.Fatalf("help mode installed %+v, want a committed record carrying the result", att)
			}
		}
	}
}

// TestPrimsHelpLostInstall: a help-mode SCX whose descriptor already
// holds an attempt must not run its own record — the caller learns it
// failed and drops what it built.
func TestPrimsHelpLostInstall(t *testing.T) {
	_, th, clk := newEngineThread(t, htm.Config{}, Config{})
	old := newPnode(clk, 7, nil)
	root := newPnode(clk, 0, old)
	d := &HelpDesc{Kind: HelpInsert, gen: 2}
	winner := &HelpAttempt{}
	if !d.Install(winner) {
		t.Fatal("install into an empty descriptor failed")
	}
	var res Result
	pr := &Prims[pnode]{Th: th, Mode: ModeHelp, Val: 8, Res: &res, Desc: d}
	if replaceChild(pr, clk, root) || !pr.Failed {
		t.Fatal("SCX succeeded although another attempt holds the descriptor")
	}
	if root.child.Get(nil) != old || old.hdr.Marked(nil) {
		t.Fatal("a record that lost the install ran")
	}
	if d.attempt.Load() != winner {
		t.Fatal("the installed attempt was displaced")
	}
}

// TestPrimsNotFound: an absent key is a result, not a retry; a helping
// attempt publishes it as a terminal attempt without a record.
func TestPrimsNotFound(t *testing.T) {
	res := Result{Val: 9, Found: true, NeedFix: true}
	pr := &Prims[pnode]{Mode: ModeFallback, Res: &res}
	if !pr.NotFound() || pr.Failed || (res != Result{}) {
		t.Fatalf("NotFound: Failed %v, result %+v", pr.Failed, res)
	}
	d := &HelpDesc{Kind: HelpDelete, Key: 5, gen: 2}
	pr = &Prims[pnode]{Mode: ModeHelp, Res: &res, Desc: d}
	if !pr.NotFound() {
		t.Fatal("NotFound returned false")
	}
	att := d.attempt.Load()
	if att == nil || att.Rec != nil || !d.Finished() || (att.Result != Result{}) {
		t.Fatalf("help-mode NotFound installed %+v, want a terminal attempt with no record", att)
	}
}
