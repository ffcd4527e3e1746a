// Package obs is the framework's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms rendered in Prometheus text exposition format) and the
// bpomdp.span/v1 JSONL span schema, whose decide spans explain every freshly
// computed recovery decision with its bound gap, belief entropy, and tree
// expansion effort (DecisionRecord).
//
// The package is designed around the zero-cost-when-disabled contract:
// nothing here sits on a hot path unless a caller explicitly wires it in,
// every instrument is a plain struct of atomics with no locks on the update
// path, and disabled instruments are nil pointers the instrumented code
// skips with one branch. The proof of the contract is the committed
// benchmark gate (make bench-smoke): campaign throughput and allocations
// must be unchanged with the instrumentation compiled in but disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to an instrument.
// Instruments in the same family (same name) are distinguished by their
// labels, e.g. a request-latency histogram per handler.
type Label struct {
	Key, Value string
}

// metric is anything the registry can render.
type metric interface {
	family() string           // metric family name (without label set)
	kind() string             // "counter", "gauge", or "histogram"
	help() string             // HELP text (may be empty)
	render(w io.Writer) error // exposition lines, no HELP/TYPE
}

// Registry holds a set of named instruments and renders them in Prometheus
// text exposition format. Instrument lookups take a lock; instrument updates
// (Counter.Add, Histogram.Observe, …) never do — callers should resolve
// instruments once at setup time and hold the pointers.
type Registry struct {
	mu    sync.RWMutex
	order []metric
	byKey map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

// key uniquely identifies one instrument: family name plus rendered labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + renderLabels(labels) + "}"
}

// renderLabels renders a label set as k1="v1",k2="v2" with escaped values.
func renderLabels(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// register adds m under its key, returning the already-registered instrument
// when the key exists. It panics when the key is taken by a different
// instrument kind — that is a programming error, not a runtime condition.
func (r *Registry) register(m metric, labels []Label) metric {
	k := key(m.family(), labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[k]; ok {
		if old.kind() != m.kind() {
			panic(fmt.Sprintf("obs: %s already registered as a %s, not a %s", k, old.kind(), m.kind()))
		}
		return old
	}
	r.byKey[k] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) monotone counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{name: name, helpText: help, labels: labels}
	return r.register(c, labels).(*Counter)
}

// Gauge registers (or returns the existing) settable gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{name: name, helpText: help, labels: labels}
	return r.register(g, labels).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// the right shape for values that already live elsewhere (e.g. the size of a
// map guarded by its own lock). fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&gaugeFunc{name: name, helpText: help, labels: labels, fn: fn}, labels)
}

// CounterFunc registers a counter whose value is read by fn at scrape time —
// for monotone counts that already live elsewhere as atomics (e.g. the
// shared FSC table's hit counters), so the hot path does not pay a second
// increment just to be scrapable. fn must be monotonically non-decreasing
// and safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&counterFunc{name: name, helpText: help, labels: labels, fn: fn}, labels)
}

// Histogram registers (or returns the existing) fixed-bucket histogram. The
// bounds must be strictly increasing; an implicit +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:     name,
		helpText: help,
		labels:   labels,
		bounds:   append([]float64(nil), bounds...),
		buckets:  make([]atomic.Uint64, len(bounds)+1),
	}
	return r.register(h, labels).(*Histogram)
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4). Instruments render in registration
// order; HELP and TYPE headers are emitted once per family, before the
// family's first instrument.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := append([]metric(nil), r.order...)
	r.mu.RUnlock()

	headered := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if !headered[m.family()] {
			headered[m.family()] = true
			if h := m.help(); h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.family(), h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.family(), m.kind()); err != nil {
				return err
			}
		}
		if err := m.render(w); err != nil {
			return err
		}
	}
	return nil
}

// Gather returns a snapshot of every instrument's current value keyed by
// name{labels}; histograms contribute their _count and _sum series. Intended
// for tests and programmatic assertions, not for scraping.
func (r *Registry) Gather() map[string]float64 {
	r.mu.RLock()
	metrics := append([]metric(nil), r.order...)
	r.mu.RUnlock()
	out := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		switch v := m.(type) {
		case *Counter:
			out[key(v.name, v.labels)] = float64(v.Value())
		case *Gauge:
			out[key(v.name, v.labels)] = v.Value()
		case *gaugeFunc:
			out[key(v.name, v.labels)] = v.fn()
		case *counterFunc:
			out[key(v.name, v.labels)] = v.fn()
		case *Histogram:
			count, sum := v.Snapshot()
			out[key(v.name+"_count", v.labels)] = float64(count)
			out[key(v.name+"_sum", v.labels)] = sum
		}
	}
	return out
}

// Counter is a monotonically increasing counter. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent use.
type Counter struct {
	v        atomic.Uint64
	name     string
	helpText string
	labels   []Label
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) family() string { return c.name }
func (c *Counter) kind() string   { return "counter" }
func (c *Counter) help() string   { return c.helpText }
func (c *Counter) render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %d\n", key(c.name, c.labels), c.Value())
	return err
}

// Gauge is a settable instantaneous value. All methods are safe for
// concurrent use.
type Gauge struct {
	bits     atomic.Uint64 // float64 bits
	name     string
	helpText string
	labels   []Label
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) family() string { return g.name }
func (g *Gauge) kind() string   { return "gauge" }
func (g *Gauge) help() string   { return g.helpText }
func (g *Gauge) render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %s\n", key(g.name, g.labels), formatFloat(g.Value()))
	return err
}

// gaugeFunc is a gauge computed at scrape time.
type gaugeFunc struct {
	name     string
	helpText string
	labels   []Label
	fn       func() float64
}

func (g *gaugeFunc) family() string { return g.name }
func (g *gaugeFunc) kind() string   { return "gauge" }
func (g *gaugeFunc) help() string   { return g.helpText }
func (g *gaugeFunc) render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %s\n", key(g.name, g.labels), formatFloat(g.fn()))
	return err
}

// counterFunc is a counter read from an external monotone source at scrape
// time.
type counterFunc struct {
	name     string
	helpText string
	labels   []Label
	fn       func() float64
}

func (c *counterFunc) family() string { return c.name }
func (c *counterFunc) kind() string   { return "counter" }
func (c *counterFunc) help() string   { return c.helpText }
func (c *counterFunc) render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%s %s\n", key(c.name, c.labels), formatFloat(c.fn()))
	return err
}

// Histogram is a fixed-bucket histogram. Observations and scrapes are
// lock-free; every per-bucket count, the total count, and the sum are
// individually atomic, so a concurrent scrape always sees each cumulative
// bucket count monotonically non-decreasing across scrapes (counts are only
// ever incremented), though one scrape may observe a sum/count pair that is
// mid-update by less than one observation.
type Histogram struct {
	bounds   []float64
	buckets  []atomic.Uint64 // bucket i counts v <= bounds[i]; last is +Inf
	count    atomic.Uint64
	sumBits  atomic.Uint64 // float64 bits, CAS-updated
	name     string
	helpText string
	labels   []Label
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns the total observation count and sum.
func (h *Histogram) Snapshot() (count uint64, sum float64) {
	return h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Cumulative returns the cumulative bucket counts (one per bound, plus the
// +Inf bucket last). Intended for tests.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) family() string { return h.name }
func (h *Histogram) kind() string   { return "histogram" }
func (h *Histogram) help() string   { return h.helpText }

// render emits the cumulative bucket series, sum, and count. The +Inf bucket
// is rendered from the same per-bucket loads as the smaller buckets (not
// from h.count), so the le="+Inf" value can momentarily trail the _count
// series under concurrent observation but each series is itself monotone.
func (h *Histogram) render(w io.Writer) error {
	base := renderLabels(h.labels)
	sep := ""
	if base != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", h.name, base, sep, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.name, base, sep, cum); err != nil {
		return err
	}
	count, sum := h.Snapshot()
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, bracket(base), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, bracket(base), count)
	return err
}

func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trippable representation, integers without a trailing ".0".
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// DefLatencyBuckets are the default request-latency histogram bounds in
// seconds, tuned for decision handlers that run from tens of microseconds
// (cached decisions) to tens of milliseconds (deep tree expansions), with
// headroom for slow outliers.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}
