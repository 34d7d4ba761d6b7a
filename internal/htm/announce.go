package htm

// Announced is an operation descriptor published in a TM's announcement
// slot (one per TM, i.e. per shard). The helpable-fallback engine
// ("Lock-Free Locks Revisited", Ben-David, Blelloch & Wei 2022)
// announces the fallback critical section here before executing it, so
// that any thread finding the fallback lock taken can run the announced
// operation to completion instead of spinning behind a possibly
// preempted owner.
//
// Finished reports whether the operation has reached a terminal state;
// a finished descriptor left in the slot is garbage that the next
// Announce clears.
type Announced interface {
	Finished() bool
}

// announceBox wraps an Announced so the slot can be a typed atomic
// pointer (interfaces cannot be CASed directly).
type announceBox struct {
	a Announced
}

// Announce tries to install a as the TM's current announcement. It
// fails (returns false) only when another unfinished operation is
// already announced; a leftover finished descriptor is cleared and the
// install retried.
func (tm *TM) Announce(a Announced) bool {
	box := &announceBox{a: a}
	for {
		cur := tm.ann.Load()
		if cur != nil {
			if !cur.a.Finished() {
				return false
			}
			tm.Retract(cur.a)
			continue
		}
		if tm.ann.CompareAndSwap(nil, box) {
			return true
		}
	}
}

// Retract clears the announcement slot if it still holds a. Any thread
// observing that a finished may retract it.
func (tm *TM) Retract(a Announced) {
	if cur := tm.ann.Load(); cur != nil && cur.a == a {
		tm.ann.CompareAndSwap(cur, nil)
	}
}

// Announcement returns the TM's currently announced operation, or nil.
func (tm *TM) Announcement() Announced {
	if box := tm.ann.Load(); box != nil {
		return box.a
	}
	return nil
}

// SetHelper registers the function that runs an announced operation on
// behalf of this thread. The engine layer installs a closure that
// downcasts the descriptor and drives it with this thread's own handle
// state (node pools, EBR record). fn must be reentrancy-free: it is
// never invoked while a previous invocation on this thread is still on
// the stack.
func (th *Thread) SetHelper(fn func(Announced) bool) { th.helper = fn }

// Help runs the TM's announced operation, if any, on behalf of this
// thread and reports whether it helped. It is a no-op inside a
// transaction: helping executes non-transactional fallback-path code,
// which must not nest under a live transaction log.
func (th *Thread) Help() bool {
	if th.inTx || th.helper == nil || th.helping {
		return false
	}
	a := th.tm.Announcement()
	if a == nil || a.Finished() {
		return false
	}
	th.helping = true
	defer func() { th.helping = false }()
	return th.helper(a)
}
