// Package obs is the live observability layer: a pull-model metrics
// registry over the engine's existing per-thread atomic counters, a
// per-thread ring-buffer flight recorder of fixed-size structured
// events, Prometheus/JSON/pprof HTTP exposition (Serve), and
// runtime/trace user regions around operation execution.
//
// The design splits responsibility so the hot path stays allocation-free
// and near-free when idle:
//
//   - Metrics are not pushed. The per-thread counters the engine already
//     maintains (operation completions per path, aborts per path and
//     cause, retry-policy actions) ARE the metric store; families
//     register read closures that sum them at scrape time. The hot path
//     pays nothing it was not already paying, and a scrape costs the
//     scraper, not the operation threads.
//   - Latencies and events are sampled per thread (every Nth op), and
//     recorded into per-thread structures: a hist.Atomic histogram and a
//     fixed-size event ring written with individual atomic word stores.
//     Threads never contend with each other, and a concurrent reader
//     (the /metrics or /events handler) sees a consistent-enough
//     best-effort snapshot without any lock on the hot path.
//   - runtime/trace regions cost one inlined enabled-check when tracing
//     is off (Start*Region returns nil without calling into
//     runtime/trace), so they are always emitted when observability is
//     configured.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"htmtree/internal/hist"
	"htmtree/internal/htm"
)

// SchemaVersion stamps the machine-readable exports of this package
// (the /vars snapshot and the /events dump), so a consumer can tell
// which field set a scrape carries.
const SchemaVersion = 2

// Defaults for Config's zero values.
const (
	DefaultLatencySample = 64
	DefaultEventSample   = 64
	DefaultEventBuffer   = 2048
)

// Config tunes the sampling discipline. The zero value selects the
// defaults; negative values disable the corresponding capture entirely
// (metrics families still work — they read counters the engine
// maintains regardless).
type Config struct {
	// LatencySample records every Nth operation's latency into the
	// per-thread histogram (two clock reads per sampled op). 0 selects
	// DefaultLatencySample; negative disables latency capture.
	LatencySample int
	// EventSample records every Nth hot-path event (op completions,
	// aborts) in the flight recorder. Cold-path events (TLE lock
	// acquisition, quiesce, fired faults) are always recorded
	// — they are rare by construction and are the ones that explain a
	// convoy. 0 selects DefaultEventSample; negative disables
	// hot-path events (cold events are still kept).
	EventSample int
	// EventBuffer is the per-thread flight-recorder capacity in events
	// (rounded up to a power of two). 0 selects DefaultEventBuffer;
	// negative disables the recorder entirely.
	EventBuffer int
}

func (c Config) withDefaults() Config {
	if c.LatencySample == 0 {
		c.LatencySample = DefaultLatencySample
	}
	if c.EventSample == 0 {
		c.EventSample = DefaultEventSample
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = DefaultEventBuffer
	}
	return c
}

// Obs is one tree's observability domain: the metric registry and the
// set of flight-recorder threads. Create one per observed tree (New),
// attach per-shard Nodes to the layers that register metrics and spawn
// recorder threads, and expose it with Serve.
type Obs struct {
	cfg Config
	// start is the domain's epoch: event timestamps are nanoseconds
	// since it.
	start time.Time

	reg registry

	mu      sync.Mutex
	threads []*ThreadObs
}

// New creates an observability domain.
func New(cfg Config) *Obs {
	o := &Obs{cfg: cfg.withDefaults(), start: time.Now()}
	o.Node().Gauge("htmtree_uptime_seconds",
		"Seconds since this tree's observability domain was created.",
		func(emit Point) { emit(time.Since(o.start).Seconds()) })
	o.Node().Gauge("htmtree_recorder_threads",
		"Flight-recorder threads registered (operation threads plus system recorders).",
		func(emit Point) {
			o.mu.Lock()
			n := len(o.threads)
			o.mu.Unlock()
			emit(float64(n))
		})
	o.Node().Histogram("htmtree_op_latency_ns",
		"Sampled per-operation latency in nanoseconds (every Config.LatencySample-th op per thread).",
		func(emit HistPoint) { emit(o.LatencySnapshot()) })
	return o
}

// Node returns a registration handle whose metric families and recorder
// threads carry the given constant labels (the shard layer attaches
// `shard="i"`). Nodes are cheap; create one per labelled component.
func (o *Obs) Node(labels ...Label) *Node {
	return &Node{o: o, labels: labels}
}

// Node is a labelled registration handle into an Obs domain.
type Node struct {
	o      *Obs
	labels []Label
}

// NewThread creates a flight-recorder thread in the node's domain.
// Sampled (hot-path) methods on the returned ThreadObs must be called
// from a single goroutine at a time; RareEvent is safe from any.
func (n *Node) NewThread() *ThreadObs {
	o := n.o
	t := &ThreadObs{o: o}
	if o.cfg.LatencySample > 0 {
		t.latEvery = uint64(o.cfg.LatencySample)
	}
	if o.cfg.EventSample > 0 {
		t.evEvery = uint64(o.cfg.EventSample)
	}
	if o.cfg.EventBuffer > 0 {
		size := 1
		for size < o.cfg.EventBuffer {
			size <<= 1
		}
		t.ring = make([]uint64, size*4)
		t.mask = uint64(size - 1)
	}
	t.evCtr = evNever
	if t.evEvery > 0 && t.ring != nil {
		t.evCtr = int64(t.evEvery)
	}
	o.mu.Lock()
	t.id = len(o.threads)
	o.threads = append(o.threads, t)
	o.mu.Unlock()
	return t
}

// EventKind classifies a flight-recorder event.
type EventKind uint8

// The event taxonomy. Hot events (EvOp, EvAbort) are subject to
// Config.EventSample; everything else records unconditionally.
const (
	EvNone       EventKind = iota
	EvOp                   // operation completed; Path is the final path
	EvAbort                // transactional attempt aborted; Path, Cause, A=policy site id, B=explicit abort code
	EvAcquire              // TLE global lock acquired
	EvQuiesce              // monitor quiesce completed; A=shard
	EvFaultAbort           // injected fault forced a transactional abort; A=fault point, B=fire seq
	EvFaultStall           // injected fault stalled the encountering goroutine; A=fault point, B=fire seq
	EvFaultKill            // injected fault killed (parked forever) the encountering goroutine; A=fault point, B=fire seq
)

// String returns the event kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EvOp:
		return "op"
	case EvAbort:
		return "abort"
	case EvAcquire:
		return "acquire"
	case EvQuiesce:
		return "quiesce"
	case EvFaultAbort:
		return "fault_abort"
	case EvFaultStall:
		return "fault_stall"
	case EvFaultKill:
		return "fault_kill"
	default:
		return "none"
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// TS is nanoseconds since the domain's Start.
	TS uint64 `json:"ts_ns"`
	// Thread is the recorder thread's registration index.
	Thread int `json:"thread"`
	// Seq orders events within one thread (TS has clock granularity).
	Seq  uint32    `json:"seq"`
	Kind EventKind `json:"-"`
	// KindName is Kind's wire name, for the JSON dump.
	KindName string         `json:"kind"`
	Path     htm.PathKind   `json:"-"`
	Cause    htm.AbortCause `json:"-"`
	// PathName and CauseName are Path's and Cause's wire names (empty
	// when the event carries no path / the cause is none).
	PathName  string `json:"path,omitempty"`
	CauseName string `json:"cause,omitempty"`
	A         uint64 `json:"a"`
	B         uint64 `json:"b"`
}

// ThreadObs is one flight-recorder thread: a sampled latency histogram
// and an event ring. The sampled methods (MaybeTime, RecordLatency,
// Event) follow the engine's per-thread single-writer discipline —
// exactly one goroutine calls them at a time — which keeps their
// sampling counters plain fields. RareEvent and the scrape-side readers
// are safe concurrently with everything: the ring is written with
// individual atomic word stores into a slot reserved by an atomic
// cursor add, so a reader sees each word either before or after a
// write; at the wrap boundary a slot being overwritten can decode as a
// mix of the old and new event (best-effort by design — the recorder
// favors a wait-free hot path over an exact dump, and the dump's
// consumers diagnose convoys, not audits).
type ThreadObs struct {
	o  *Obs
	id int

	lat      hist.Atomic
	latEvery uint64 // sample period; 0 = disabled
	latCtr   uint64

	evEvery uint64 // hot-event sample period; 0 = disabled
	evCtr   int64  // countdown to the next recorded hot event

	seq  uint32
	pos  uint64   // atomic: next event index
	ring []uint64 // 4 words per event; nil = recorder disabled
	mask uint64
}

// ID returns the thread's registration index in its domain.
func (t *ThreadObs) ID() int { return t.id }

// MaybeTime reports whether this operation's latency should be
// captured, advancing the thread's sampling counter. Single-writer.
func (t *ThreadObs) MaybeTime() bool {
	if t.latEvery == 0 {
		return false
	}
	t.latCtr++
	if t.latCtr < t.latEvery {
		return false
	}
	t.latCtr = 0
	return true
}

// RecordLatency records one sampled operation latency in nanoseconds.
func (t *ThreadObs) RecordLatency(ns uint64) { t.lat.Record(ns) }

// evNever parks a disabled recorder's countdown so far away that the
// decrement-only fast path never reaches it.
const evNever = 1 << 62

// Event records a hot-path event, subject to the event sampling period.
// Single-writer. The body is a single countdown so it inlines into the
// engine's per-operation path; everything else lives in evFire.
func (t *ThreadObs) Event(kind EventKind, path htm.PathKind, cause htm.AbortCause, a, b uint64) {
	t.evCtr--
	if t.evCtr > 0 {
		return
	}
	t.evFire(kind, path, cause, a, b)
}

// evFire records one sampled hot event and rearms the countdown (or
// parks it when hot events are disabled).
func (t *ThreadObs) evFire(kind EventKind, path htm.PathKind, cause htm.AbortCause, a, b uint64) {
	if t.evEvery == 0 || t.ring == nil {
		t.evCtr = evNever
		return
	}
	t.evCtr = int64(t.evEvery)
	t.put(kind, path, cause, a, b)
}

// RareEvent records a cold-path event unconditionally. Safe from any
// goroutine (the shard layer's quiesce recorder is shared by every
// escalated reader).
func (t *ThreadObs) RareEvent(kind EventKind, path htm.PathKind, cause htm.AbortCause, a, b uint64) {
	if t.ring == nil {
		return
	}
	t.put(kind, path, cause, a, b)
}

func (t *ThreadObs) put(kind EventKind, path htm.PathKind, cause htm.AbortCause, a, b uint64) {
	ts := uint64(time.Since(t.o.start))
	seq := atomic.AddUint32(&t.seq, 1)
	slot := (atomic.AddUint64(&t.pos, 1) - 1) & t.mask
	i := slot * 4
	atomic.StoreUint64(&t.ring[i], ts)
	atomic.StoreUint64(&t.ring[i+1],
		uint64(kind)<<56|uint64(path&0xf)<<52|uint64(cause&0xf)<<48|uint64(seq))
	atomic.StoreUint64(&t.ring[i+2], a)
	atomic.StoreUint64(&t.ring[i+3], b)
}

// drain decodes the thread's retained events (oldest first).
func (t *ThreadObs) drain(into []Event) []Event {
	if t.ring == nil {
		return into
	}
	end := atomic.LoadUint64(&t.pos)
	n := end
	if max := t.mask + 1; n > max {
		n = max
	}
	for i := end - n; i < end; i++ {
		j := (i & t.mask) * 4
		meta := atomic.LoadUint64(&t.ring[j+1])
		kind := EventKind(meta >> 56)
		if kind == EvNone {
			continue
		}
		cause := htm.AbortCause(meta >> 48 & 0xf)
		ev := Event{
			TS:       atomic.LoadUint64(&t.ring[j]),
			Thread:   t.id,
			Seq:      uint32(meta),
			Kind:     kind,
			KindName: kind.String(),
			Path:     htm.PathKind(meta >> 52 & 0xf),
			Cause:    cause,
			A:        atomic.LoadUint64(&t.ring[j+2]),
			B:        atomic.LoadUint64(&t.ring[j+3]),
		}
		if ev.Path != 0 {
			ev.PathName = ev.Path.String()
		}
		if cause != htm.CauseNone {
			ev.CauseName = cause.String()
		}
		into = append(into, ev)
	}
	return into
}

// Events returns the chronological merge of every recorder thread's
// retained events (by timestamp, then thread and per-thread sequence).
// Safe to call while threads record; the result is the best-effort
// snapshot the ThreadObs comment describes.
func (o *Obs) Events() []Event {
	o.mu.Lock()
	threads := append([]*ThreadObs(nil), o.threads...)
	o.mu.Unlock()
	var out []Event
	for _, t := range threads {
		out = t.drain(out)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		return a.Seq < b.Seq
	})
	return out
}
