package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"htmtree/internal/hist"
)

// Label is one metric label pair.
type Label struct{ K, V string }

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// Point emits one sample of a counter or gauge family with optional
// labels (the registering Node's constant labels are appended
// automatically).
type Point func(v float64, labels ...Label)

// HistPoint emits one histogram sample set. The *hist.Hist must be a
// stable snapshot (not a live per-thread accumulator).
type HistPoint func(h *hist.Hist, labels ...Label)

type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// family is one named metric with its registered collectors. Collectors
// accumulate as components register (one per shard, typically) and all
// run at scrape time.
type family struct {
	name, help string
	kind       familyKind
	collect    []func(emit Point)
	collectH   []func(emit HistPoint)
}

// registry is the pull-model family table. Registration happens at
// construction time (under mu); scrapes walk a sorted snapshot.
type registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

func (r *registry) family(name, help string, kind familyKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fams == nil {
		r.fams = make(map[string]*family)
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	}
	return f
}

func (r *registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter registers a cumulative family; collect is invoked at every
// scrape and must emit current totals (monotone across calls). Multiple
// registrations of the same name (one per shard) accumulate collectors
// under one exposition family.
func (n *Node) Counter(name, help string, collect func(emit Point)) {
	f := n.o.reg.family(name, help, kindCounter)
	n.add(f, collect)
}

// Gauge registers an instantaneous-value family.
func (n *Node) Gauge(name, help string, collect func(emit Point)) {
	f := n.o.reg.family(name, help, kindGauge)
	n.add(f, collect)
}

func (n *Node) add(f *family, collect func(emit Point)) {
	labels := n.labels
	f.collect = append(f.collect, func(emit Point) {
		collect(func(v float64, ls ...Label) {
			emit(v, append(ls, labels...)...)
		})
	})
}

// Histogram registers a histogram family; collect must emit stable
// hist.Hist snapshots (merge live hist.Atomic accumulators into a fresh
// Hist first).
func (n *Node) Histogram(name, help string, collect func(emit HistPoint)) {
	f := n.o.reg.family(name, help, kindHistogram)
	labels := n.labels
	f.collectH = append(f.collectH, func(emit HistPoint) {
		collect(func(h *hist.Hist, ls ...Label) {
			emit(h, append(ls, labels...)...)
		})
	})
}

// LatencySnapshot merges every recorder thread's sampled latency
// histogram into one stable snapshot.
func (o *Obs) LatencySnapshot() *hist.Hist {
	o.mu.Lock()
	threads := append([]*ThreadObs(nil), o.threads...)
	o.mu.Unlock()
	h := &hist.Hist{}
	for _, t := range threads {
		t.lat.Snapshot(h)
	}
	return h
}

// renderLabels formats a label set as {k="v",...}, escaping values per
// the exposition format. Empty set renders as the empty string.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		for _, r := range l.V {
			switch r {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteRune(r)
			}
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms export cumulative `le` buckets via
// hist.Cumulative — exact for the integer samples the histograms hold.
func (o *Obs) WriteProm(w io.Writer) error {
	for _, f := range o.reg.sorted() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, strings.ReplaceAll(f.help, "\n", " "), f.name, f.kind); err != nil {
			return err
		}
		var werr error
		emit := func(v float64, ls ...Label) {
			if werr != nil {
				return
			}
			_, werr = fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(ls), formatValue(v))
		}
		for _, c := range f.collect {
			c(emit)
		}
		emitH := func(h *hist.Hist, ls ...Label) {
			if werr != nil {
				return
			}
			base := renderLabels(ls)
			for _, cb := range h.Cumulative() {
				lab := fmt.Sprintf(`{le="%d"}`, cb.Le)
				if base != "" {
					lab = base[:len(base)-1] + fmt.Sprintf(`,le="%d"}`, cb.Le)
				}
				if _, werr = fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lab, cb.Count); werr != nil {
					return
				}
			}
			lab := `{le="+Inf"}`
			if base != "" {
				lab = base[:len(base)-1] + `,le="+Inf"}`
			}
			_, werr = fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %d\n%s_count%s %d\n",
				f.name, lab, h.Count(), f.name, base, h.Sum(), f.name, base, h.Count())
		}
		for _, c := range f.collectH {
			c(emitH)
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// varsPoint is one sample in the /vars JSON snapshot.
type varsPoint struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// varsHist is one histogram sample set in the /vars JSON snapshot.
type varsHist struct {
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    uint64            `json:"sum"`
	Max    uint64            `json:"max"`
	P50    uint64            `json:"p50_ns"`
	P99    uint64            `json:"p99_ns"`
	P999   uint64            `json:"p999_ns"`
}

// Vars is the /vars JSON snapshot shape, stamped with SchemaVersion.
type Vars struct {
	Schema        int                    `json:"schema"`
	UptimeSeconds float64                `json:"uptime_seconds"`
	Metrics       map[string][]varsPoint `json:"metrics"`
	Histograms    map[string][]varsHist  `json:"histograms"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.K] = l.V
	}
	return m
}

// Snapshot collects every family into a Vars value.
func (o *Obs) Snapshot() Vars {
	v := Vars{
		Schema:        SchemaVersion,
		UptimeSeconds: time.Since(o.start).Seconds(),
		Metrics:       map[string][]varsPoint{},
		Histograms:    map[string][]varsHist{},
	}
	for _, f := range o.reg.sorted() {
		for _, c := range f.collect {
			c(func(val float64, ls ...Label) {
				v.Metrics[f.name] = append(v.Metrics[f.name],
					varsPoint{Labels: labelMap(ls), Value: val})
			})
		}
		for _, c := range f.collectH {
			c(func(h *hist.Hist, ls ...Label) {
				v.Histograms[f.name] = append(v.Histograms[f.name], varsHist{
					Labels: labelMap(ls),
					Count:  h.Count(), Sum: h.Sum(), Max: h.Max(),
					P50: h.Quantile(0.50), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
				})
			})
		}
	}
	return v
}

// WriteVars writes the /vars JSON snapshot.
func (o *Obs) WriteVars(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o.Snapshot())
}
