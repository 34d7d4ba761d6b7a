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

func newPnode(val uint64, child *pnode) *pnode {
	n := &pnode{val: val}
	n.child.Init(child)
	return n
}

// replaceChild is a template update written once against Prims: replace
// root's child by a fresh node holding pr.Val, reporting the old value.
func replaceChild(pr *Prims[pnode], root *pnode) bool {
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
		[]*llxscx.Hdr{&c.hdr}, &root.child, c, newPnode(pr.Val, nil))
}

// TestPrimsModesAgree runs the same body in every mode and requires the
// same effect: the child swung, the old child finalized, the result
// delivered.
func TestPrimsModesAgree(t *testing.T) {
	for _, m := range []Mode{ModeFast, ModeMiddle, ModeFallback, ModeSCXHTM} {
		_, th := newEngineThread(t, htm.Config{}, Config{})
		old := newPnode(7, nil)
		root := newPnode(0, old)
		var res Result
		pr := &Prims[pnode]{Th: th, Mode: m, Val: 8, Res: &res}
		ok := false
		switch m {
		case ModeFast, ModeMiddle:
			committed, ab := th.H.Atomic(htm.PathFast, func(tx *htm.Tx) {
				pr.Tx = tx
				ok = replaceChild(pr, root)
			})
			if !committed {
				t.Fatalf("mode %d: transaction aborted: %+v", m, ab)
			}
		default:
			ok = replaceChild(pr, root)
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
	}
}

// TestPrimsNotFound: an absent key is a result, not a retry.
func TestPrimsNotFound(t *testing.T) {
	res := Result{Val: 9, Found: true, NeedFix: true}
	pr := &Prims[pnode]{Mode: ModeFallback, Res: &res}
	if !pr.NotFound() || pr.Failed || (res != Result{}) {
		t.Fatalf("NotFound: Failed %v, result %+v", pr.Failed, res)
	}
}
