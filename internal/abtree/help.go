package abtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// Helpable-fallback support (engine/help.go). Helping an announced
// update is one more mode of its one body (insertBody / deleteBody in
// ops.go, engine.ModeHelp): arguments come from the descriptor and the
// result goes into the installed attempt — never through the handle's
// argument and result scratch, which belongs to whatever operation this
// thread itself has in flight — while the nodes come from this handle's
// pool, and the aggregate bracket around the swing is prims.scx's.
//
// The handle's merge/split buffers (buf, kbuf, cbuf) and search path are
// reused: helping only happens at attempt boundaries (before a
// transactional attempt begins, or while blocked on the fallback word),
// never in the middle of this thread's own body, so that scratch is dead
// at every helping point.
//
// A helped update reports the underfull/tagged violation it may create
// through the attempt's NeedFix; the announcing owner — not the helper —
// runs the fix loop after the engine returns, since rebalancing steps
// are ordinary engine operations a helper cannot nest.

// helpExec runs one attempt at the announced descriptor using this
// handle's pools and reclamation context (engine.Thread.SetHelpExec); the
// engine's executor loop re-drives it until an attempt is installed and
// terminal. The body reports true when this thread installed the
// committed attempt: it then retires the removed nodes and publishes the
// drawn ones, here, because no Insert or Delete of this handle will
// settle for it. Any other outcome (a failed LLX, a lost install, an
// aborted record) returns what the attempt drew to the pool, so a later
// Settle cannot mistake it for published nodes.
func (h *Handle) helpExec(d *engine.HelpDesc) {
	pr := &prims{
		Prims: engine.Prims[Node]{Th: h.e, Mode: engine.ModeHelp, Key: d.Key, Val: d.Val, Res: &h.helpRes, Desc: d},
		h:     h,
	}
	var done bool
	switch d.Kind {
	case engine.HelpInsert:
		done = h.t.insertBody(pr)
	case engine.HelpDelete:
		done = h.t.deleteBody(pr)
	}
	if done {
		h.settle(htm.PathFallback)
	} else {
		h.beginAttempt()
	}
}
