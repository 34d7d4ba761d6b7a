// Package fault is the deterministic fault-injection plane: a registry
// of named injection points threaded through the protocol seams the
// engine's correctness arguments actually depend on — forced
// transactional aborts, stalls and permanent death of a fallback-path
// owner, quiesce-gate delays, epoch-pin stalls that starve reclamation,
// batch flush delays, and edits inside a fallback search's leaf snapshot —
// plus a progress watchdog (Liveness) that distinguishes "blocked on a
// dead owner" (a bug) from "progressed past a dead owner" (the lock-free
// guarantee).
//
// A Plan compiles a seed and a set of per-point Rules into per-point
// trigger state. Every trigger decision is a pure function of
// (seed, point, encounter index), so a chaos failure reproduces from
// the pair (seed, plan) alone — scheduling decides only which
// goroutine encounters a point at which index, not whether that
// encounter fires.
//
// The package is a leaf: it imports nothing from this repository, so
// every layer that has a seam (htm, engine, ebr, shard, abtree, batch)
// can hold a *Plan. A nil plan is always legal and compiles each
// injection check down to a single predictable branch, which is what
// keeps the steady-state 0 allocs/op gate and the obs.op_ns benchmark
// rung unmoved when no faults are configured.
package fault

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection point. Points are compiled into the code
// at the seam they describe; a Plan activates any subset of them.
type Point uint8

// The point catalogue. Each constant documents the seam it is wired
// into and what an effect firing there exercises.
const (
	pointInvalid Point = iota
	// PointTxAccess fires on transactional cell accesses and forces an
	// abort with the rule's Cause (spurious when unset) — the simulated
	// TM's one abort injector, for an abort storm by cause under the
	// retry policy's real reactions. A capacity cause makes the retry
	// policy abandon the path at once, which is how a test steers an
	// operation off a path.
	PointTxAccess
	// PointFallbackOwner fires when a fallback-path owner is at its
	// most preemption-sensitive point: as a lock-free fallback operation
	// begins — after it arrives on the fallback-presence indicator F
	// under 2-path-ncon and 3-path, which keep one — and right after the
	// TLE lock acquisition. A Stall models a descheduled owner; Kill
	// models a crashed one (the goroutine parks forever, holding F or
	// the lock). Kill is meaningful where the first path moves on
	// instead of waiting — 3-path, whose fast path yields to its middle
	// path while F is non-zero, and 2-path-con, non-htm and scx-htm
	// (killed as its software phase begins), which have no F — and
	// there the other threads must keep completing operations: the
	// paper's progress claim made executable. TLE's lock wait and
	// 2-path-ncon's wait for F to drain wedge behind a dead owner by
	// design.
	PointFallbackOwner
	// PointQuiesce fires after an escalated atomic cross-shard read
	// quiesced the monitors of the shards it reads — while it holds the
	// gates updates wait at.
	PointQuiesce
	// PointEBRPin fires inside an epoch-based-reclamation Begin, while
	// the thread is pinned to the announced epoch — a stalled pin
	// lags the epoch and starves every other thread's grace periods.
	PointEBRPin
	// PointBatchFlush fires at the head of a batch pipeline flush,
	// before the group executes.
	PointBatchFlush
	// PointSearchLeaf fires inside the (a,b)-tree's fallback-path Search,
	// in the LLXRead of its leaf between the reads of the leaf's fields and
	// the re-read of its info field that validates them — where an
	// in-place middle-path edit of the leaf must send the search back.
	PointSearchLeaf
	// NumPoints bounds the point space.
	NumPoints
)

// String returns the point's wire name (stable; used in plan dumps and
// benchmark artifacts).
func (p Point) String() string {
	switch p {
	case PointTxAccess:
		return "tx-access"
	case PointFallbackOwner:
		return "fallback-owner"
	case PointQuiesce:
		return "quiesce"
	case PointEBRPin:
		return "ebr-pin"
	case PointBatchFlush:
		return "batch-flush"
	case PointSearchLeaf:
		return "search-leaf"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Rule arms one injection point. Trigger selection: Every fires on
// each Every-th encounter (after skipping the first After), Prob fires
// each encounter independently with the given probability (seeded by
// the plan, deterministic per encounter index); exactly one of the two
// should be set. Count bounds the total number of fires (0 =
// unlimited; 1 = one-shot).
type Rule struct {
	// Point is the seam this rule arms.
	Point Point
	// Every fires deterministically on every Every-th encounter.
	Every uint64
	// Prob fires each encounter independently with probability Prob
	// (0 < Prob <= 1), derived from the plan seed and the encounter
	// index.
	Prob float64
	// After skips the first After encounters entirely.
	After uint64
	// Count caps the number of fires; 0 is unlimited.
	Count uint64

	// Stall sleeps the encountering goroutine for the given duration.
	Stall time.Duration
	// Kill parks the encountering goroutine forever (until the
	// harness calls Plan.ReleaseKilled at teardown): permanent death
	// of whatever role the goroutine held at the point.
	Kill bool
	// Cause is the forced abort cause at PointTxAccess, in the HTM
	// layer's AbortCause encoding; 0 lets the site pick its default
	// (spurious).
	Cause uint8
	// Func is an arbitrary callback effect, run at the injection
	// point: tests park or yield the encountering goroutine with it. A
	// rule with only a Func fires on every encounter.
	Func func()
	// Watch opens a Liveness stall window around this rule's Stall or
	// Kill effect, asserting other threads make progress while the
	// victim is out.
	Watch bool
}

// String renders the rule in the canonical reproduction syntax.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.Point)
	if r.Every > 0 {
		fmt.Fprintf(&b, " every=%d", r.Every)
	}
	if r.Prob > 0 {
		fmt.Fprintf(&b, " prob=%g", r.Prob)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, " after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, " count=%d", r.Count)
	}
	if r.Stall > 0 {
		fmt.Fprintf(&b, " stall=%s", r.Stall)
	}
	if r.Kill {
		b.WriteString(" kill")
	}
	if r.Cause != 0 {
		fmt.Fprintf(&b, " cause=%d", r.Cause)
	}
	if r.Func != nil {
		b.WriteString(" func")
	}
	return b.String()
}

// Effect is one fired fault, handed to the injection site. The site
// interprets Cause (the HTM seam aborts with it); Stall, Kill and Func
// are executed uniformly by Plan.Exec.
type Effect struct {
	Point Point
	// Seq is the 1-based fire index at this point.
	Seq   uint64
	Cause uint8
	Stall time.Duration
	Kill  bool
	Func  func()
	watch bool
}

// pointState is one compiled rule plus its live trigger counters.
type pointState struct {
	active bool
	kill   bool
	watch  bool
	cause  uint8
	every  uint64
	after  uint64
	probT  uint64 // fire when mix(seed, point, n) < probT; 0 = disabled
	count  uint64 // max fires; 0 = unlimited
	stall  time.Duration
	fn     func()

	hits  atomic.Uint64
	fires atomic.Uint64
}

// Plan is a compiled, live fault plan. One Plan may be shared by every
// layer of a dictionary (and by all shards of a sharded one): the
// per-point encounter counters are then global, so "every Nth fallback
// entry" means the Nth across the whole structure. All methods are
// safe on a nil receiver (the single-branch disabled fast path).
type Plan struct {
	seed  uint64
	rules []Rule
	pts   [NumPoints]pointState

	// onFire, lv and killCh are set before the plan is shared with
	// running threads (SetOnFire / Watch / New).
	onFire func(Effect)
	lv     *Liveness

	killCh   chan struct{}
	killOnce sync.Once
}

// New compiles a plan from a seed and rules. Two rules on the same
// point compose: trigger fields must agree (the second rule may leave
// them zero), and Func callbacks chain. Invalid rules panic — plans
// are built by harness code, not request paths.
func New(seed uint64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, killCh: make(chan struct{})}
	for _, r := range rules {
		p.addRule(r)
	}
	return p
}

func (p *Plan) addRule(r Rule) {
	if r.Point <= pointInvalid || r.Point >= NumPoints {
		panic(fmt.Sprintf("fault: rule on invalid point %d", r.Point))
	}
	if r.Prob < 0 || r.Prob > 1 {
		panic(fmt.Sprintf("fault: rule %v: Prob out of [0, 1]", r))
	}
	if r.Every == 0 && r.Prob == 0 && r.Func == nil {
		panic(fmt.Sprintf("fault: rule %v: no trigger (set Every or Prob)", r))
	}
	if r.Every == 0 && r.Prob == 0 {
		r.Every = 1 // a bare Func rule fires on every encounter
	}
	p.rules = append(p.rules, r)
	s := &p.pts[r.Point]
	if s.active {
		// Compose with the existing rule: chain callbacks, adopt any
		// newly set effect fields, keep the first rule's trigger.
		if prev, next := s.fn, r.Func; prev != nil && next != nil {
			s.fn = func() { prev(); next() }
		} else if next != nil {
			s.fn = next
		}
		s.kill = s.kill || r.Kill
		s.watch = s.watch || r.Watch
		if r.Stall > s.stall {
			s.stall = r.Stall
		}
		if r.Cause != 0 {
			s.cause = r.Cause
		}
		return
	}
	*s = pointState{
		active: true,
		kill:   r.Kill,
		watch:  r.Watch,
		cause:  r.Cause,
		every:  r.Every,
		after:  r.After,
		count:  r.Count,
		stall:  r.Stall,
		fn:     r.Func,
	}
	if r.Prob > 0 {
		s.probT = uint64(r.Prob * float64(1<<63) * 2)
		if r.Prob >= 1 {
			s.probT = ^uint64(0)
		}
	}
}

// With returns a new plan extending p with extra rules (p itself is
// not modified and its counters are not inherited). A nil receiver
// compiles a fresh plan from the rules alone.
func (p *Plan) With(rules ...Rule) *Plan {
	if p == nil {
		return New(0, rules...)
	}
	np := New(p.seed, p.rules...)
	for _, r := range rules {
		np.addRule(r)
	}
	np.onFire = p.onFire
	np.lv = p.lv
	return np
}

// String renders the plan in the reproduction syntax the ARCHITECTURE
// docs describe: seed plus one clause per rule.
func (p *Plan) String() string {
	if p == nil {
		return "fault.Plan(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%#x", p.seed)
	for _, r := range p.rules {
		b.WriteString("; ")
		b.WriteString(r.String())
	}
	return b.String()
}

// SetOnFire registers a hook invoked synchronously on every fire — the
// flight-recorder bridge (the obs layer records fired faults as cold
// events through it). Must be set before the plan is shared with
// running threads.
func (p *Plan) SetOnFire(fn func(Effect)) { p.onFire = fn }

// Watch attaches the progress watchdog: Stall/Kill effects of rules
// with Rule.Watch open stall windows on it. Must be set before the
// plan is shared with running threads. Returns p for chaining.
func (p *Plan) Watch(lv *Liveness) *Plan {
	p.lv = lv
	return p
}

// Liveness returns the attached watchdog, if any.
func (p *Plan) Liveness() *Liveness {
	if p == nil {
		return nil
	}
	return p.lv
}

// mix is splitmix64 over the plan seed, the point, and the encounter
// index: the deterministic coin for probabilistic rules.
func mix(seed uint64, pt Point, n uint64) uint64 {
	z := seed + uint64(pt)*0x9e3779b97f4a7c15 + n*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// At records one encounter of pt and reports whether it fires,
// returning the effect to apply. The nil-plan fast path is the single
// branch the hot-path gates rely on; an armed plan costs two more
// loads on points it does not arm. Sites that only need the uniform
// effects call Hit instead.
func (p *Plan) At(pt Point) (Effect, bool) {
	if p == nil {
		return Effect{}, false
	}
	return p.at(pt)
}

func (p *Plan) at(pt Point) (Effect, bool) {
	s := &p.pts[pt]
	if !s.active {
		return Effect{}, false
	}
	n := s.hits.Add(1)
	if n <= s.after {
		return Effect{}, false
	}
	m := n - s.after
	fire := false
	if s.every > 0 {
		fire = m%s.every == 0
	} else {
		fire = mix(p.seed, pt, n) < s.probT
	}
	if !fire {
		return Effect{}, false
	}
	seq := s.fires.Add(1)
	if s.count > 0 && seq > s.count {
		s.fires.Add(^uint64(0))
		return Effect{}, false
	}
	eff := Effect{
		Point: pt, Seq: seq, Cause: s.cause,
		Stall: s.stall, Kill: s.kill, Func: s.fn, watch: s.watch,
	}
	if p.onFire != nil {
		p.onFire(eff)
	}
	return eff, true
}

// Hit is At followed by Exec: the one-liner for seams whose effects
// are the uniform ones (Stall, Kill, Func). Nil-safe.
func (p *Plan) Hit(pt Point) {
	if p == nil {
		return
	}
	if eff, ok := p.at(pt); ok {
		p.exec(eff)
	}
}

// Exec applies an effect's uniform parts at the injection site: the
// callback, then the stall or the kill, bracketed by a Liveness stall
// window when the rule is watched. A Kill parks the calling goroutine
// until ReleaseKilled; its window stays open until Liveness.Finish.
func (p *Plan) Exec(e Effect) {
	if p == nil {
		return
	}
	p.exec(e)
}

func (p *Plan) exec(e Effect) {
	if e.Func != nil {
		e.Func()
	}
	if e.Kill {
		if e.watch && p.lv != nil {
			p.lv.stallBegin(e.Point, true)
		}
		<-p.killCh
		return
	}
	if e.Stall <= 0 {
		return
	}
	if e.watch && p.lv != nil {
		id := p.lv.stallBegin(e.Point, false)
		time.Sleep(e.Stall)
		p.lv.stallEnd(id)
		return
	}
	time.Sleep(e.Stall)
}

// Hits returns how many times pt has been encountered, Fires how many
// times it fired. Nil-safe.
func (p *Plan) Hits(pt Point) uint64 {
	if p == nil {
		return 0
	}
	return p.pts[pt].hits.Load()
}

// Fires returns the number of effects fired at pt.
func (p *Plan) Fires(pt Point) uint64 {
	if p == nil {
		return 0
	}
	n := p.pts[pt].fires.Load()
	if max := p.pts[pt].count; max > 0 && n > max {
		n = max
	}
	return n
}

// ReleaseKilled resumes every goroutine parked by a Kill effect.
// During the run a kill is permanent — that is the fault being
// modelled; harnesses call this at teardown, after all assertions,
// so the test binary does not accumulate parked goroutines. Safe to
// call more than once, and on a nil plan.
func (p *Plan) ReleaseKilled() {
	if p == nil {
		return
	}
	p.killOnce.Do(func() { close(p.killCh) })
}

// Liveness is the progress watchdog: harness worker threads report
// completed operations (OpDone), watched Stall/Kill effects bracket
// stall windows, and Check asserts that system-wide throughput stayed
// nonzero while any window was open — the difference between
// "progressed past a dead owner" (the lock-free guarantee) and "blocked
// on a dead owner" (a bug). Kill windows never end on their own; Finish closes
// them with the final operation count before Check.
//
// Windows that overlap in time share a Group and are judged on their
// merged span: when the injector has stalled several victims at once
// (or all workers, on a single-CPU host), an individual window with
// zero progress proves nothing about the protocol as long as the
// system progressed across the combined stalled period.
type Liveness struct {
	ops atomic.Uint64

	mu        sync.Mutex
	open      map[uint64]*StallWindow
	done      []StallWindow
	next      uint64
	nextGroup int
}

// StallWindow is one recorded stall: the operations the rest of the
// system completed between the victim's entry and its exit (or the
// harness's Finish, for kills).
type StallWindow struct {
	Point Point
	// Kill records that the victim died rather than stalled.
	Kill bool
	// OpsBefore and OpsAfter are the global completed-operation counts
	// at the window's open and close.
	OpsBefore, OpsAfter uint64
	// Group joins windows that overlapped in time: a window opened
	// while another was still open shares its group, and Check judges
	// progress per merged group rather than per window.
	Group int
}

// Progress returns the operations completed by other threads during
// the window.
func (w StallWindow) Progress() uint64 { return w.OpsAfter - w.OpsBefore }

// OpDone reports one completed operation. Nil-safe, so harness loops
// can call it unconditionally.
func (l *Liveness) OpDone() {
	if l == nil {
		return
	}
	l.ops.Add(1)
}

// Ops returns the completed-operation count so far.
func (l *Liveness) Ops() uint64 { return l.ops.Load() }

func (l *Liveness) stallBegin(pt Point, kill bool) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.open == nil {
		l.open = make(map[uint64]*StallWindow)
	}
	l.next++
	id := l.next
	group := 0
	for _, w := range l.open {
		// All currently-open windows already share one group (each
		// joined the group open at its own begin), so any of them
		// names it.
		group = w.Group
		break
	}
	if group == 0 {
		l.nextGroup++
		group = l.nextGroup
	}
	l.open[id] = &StallWindow{Point: pt, Kill: kill, OpsBefore: l.ops.Load(), Group: group}
	return id
}

func (l *Liveness) stallEnd(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.open[id]
	if !ok {
		return
	}
	delete(l.open, id)
	w.OpsAfter = l.ops.Load()
	l.done = append(l.done, *w)
}

// Finish closes every still-open window (killed owners never close
// their own) at the current operation count. Call after the workload
// drained, before Check.
func (l *Liveness) Finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.ops.Load()
	for id, w := range l.open {
		delete(l.open, id)
		w.OpsAfter = now
		l.done = append(l.done, *w)
	}
}

// Open returns the number of stall windows open now: victims still
// stalled, or dead.
func (l *Liveness) Open() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open)
}

// Windows returns the closed stall windows recorded so far.
func (l *Liveness) Windows() []StallWindow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]StallWindow(nil), l.done...)
}

// groupSpan is one merged stalled period: the union of a group's
// overlapping windows.
type groupSpan struct {
	point   Point
	kill    bool
	lo, hi  uint64
	windows int
}

// groups merges the closed windows by Group. The ops counter is
// monotone, so a group's merged progress is max(OpsAfter) minus
// min(OpsBefore) across its windows.
func (l *Liveness) groups() []groupSpan {
	byID := map[int]*groupSpan{}
	var order []int
	for _, w := range l.Windows() {
		g, ok := byID[w.Group]
		if !ok {
			g = &groupSpan{point: w.Point, lo: w.OpsBefore, hi: w.OpsAfter}
			byID[w.Group] = g
			order = append(order, w.Group)
		}
		if w.OpsBefore < g.lo {
			g.lo = w.OpsBefore
		}
		if w.OpsAfter > g.hi {
			g.hi = w.OpsAfter
		}
		g.kill = g.kill || w.Kill
		g.windows++
	}
	spans := make([]groupSpan, 0, len(order))
	for _, id := range order {
		spans = append(spans, *byID[id])
	}
	return spans
}

// MinProgress returns the smallest merged-group progress (and true),
// or (0, false) when no window closed. Individual windows can report
// zero progress legitimately when they overlap a progressing peer
// window; the group span is the meaningful survival metric.
func (l *Liveness) MinProgress() (uint64, bool) {
	spans := l.groups()
	if len(spans) == 0 {
		return 0, false
	}
	min := ^uint64(0)
	for _, g := range spans {
		if p := g.hi - g.lo; p < min {
			min = p
		}
	}
	return min, true
}

// Check returns an error naming the first merged stalled period during
// which the rest of the system completed no operations — a progress
// (lock-freedom) violation under the injected fault.
func (l *Liveness) Check() error {
	for i, g := range l.groups() {
		if g.hi == g.lo {
			verb := "stalled"
			if g.kill {
				verb = "dead"
			}
			return fmt.Errorf("fault: liveness violation: stalled period %d (%s owner at %s, %d overlapping windows) saw zero completed operations (system blocked behind the victim)",
				i, verb, g.point, g.windows)
		}
	}
	return nil
}
