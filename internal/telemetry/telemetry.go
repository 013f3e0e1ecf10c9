// Package telemetry is a zero-dependency metrics layer for the simulator
// and its serving stack: counters, gauges and fixed-bucket histograms
// behind a registry with Prometheus-text and JSON exposition.
//
// Two properties shape the design:
//
//   - Hot-path writes are allocation-free and lock-free. Instruments are
//     plain structs of atomics; Inc/Add/Set/Observe never allocate, never
//     take the registry lock, and are safe from any goroutine (the serve
//     layer increments from its shard loops while /metrics scrapes).
//   - Instrumentation is provably inert. Every instrument method is a
//     no-op on a nil receiver, so instrumented code paths carry bare
//     `c.Inc()` calls with no conditional wiring; a simulation with no
//     registry attached executes the identical instruction stream minus
//     the atomic writes. Nothing ever reads an instrument back into
//     simulation behaviour, and no instrument touches an RNG stream, so
//     outputs are byte-identical with telemetry on or off (enforced by
//     equivalence tests in scenario, script, serve and experiments).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one dimension of a metric series (e.g. {shard="s0"}).
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing int64. A nil *Counter is a valid
// no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the Prometheus contract; this is not
// checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. A nil *Gauge is a valid no-op
// instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: counts per upper bound plus a
// +Inf overflow bucket, a total count, and a sum. Observe is lock-free
// and allocation-free. A nil *Histogram is a valid no-op instrument.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram validates bounds (ascending, finite) and allocates.
func newHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: non-finite histogram bound %v", b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %v", b))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~20) and the scan avoids the
	// bounds-check and call overhead of sort.Search on the hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Sum returns the sum of samples (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets is a 1ms..~16s exponential ladder for query latencies,
// in seconds.
func LatencyBuckets() []float64 { return ExponentialBuckets(0.001, 2, 15) }

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Kind discriminates instrument types in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// series is one registered instrument with its identity.
type series struct {
	name   string
	help   string
	kind   string
	labels []Label // sorted by key

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry owns a set of metric series. Registration is idempotent: the
// same (name, labels) returns the same instrument, so rebuilding a
// simulation on a shared registry (or restarting a shard) re-binds to the
// counters it already owns instead of losing or duplicating them.
// Registration takes a lock; instrument writes do not.
type Registry struct {
	mu     sync.Mutex
	series []*series
	index  map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*series{}}
}

// Instrumenter is the registration surface instrumented layers accept. It
// is satisfied by *Registry and by Scoped views; configs carry it as an
// interface so a nil value stays encodable (encoding/gob chokes on typed
// nil pointers to unexported-field structs, and scenario results are
// gob-compared by the fuzz oracles).
type Instrumenter interface {
	Counter(name, help string, labels ...Label) *Counter
	Gauge(name, help string, labels ...Label) *Gauge
	Histogram(name, help string, bounds []float64, labels ...Label) *Histogram
}

// seriesKey builds the identity key for (name, sorted labels).
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates a series, panicking on a kind clash (two call
// sites disagreeing about what a name means is a programming error).
func (r *Registry) lookup(name, help, kind string, labels []Label) *series {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	s := &series{name: name, help: help, kind: kind, labels: ls}
	r.index[key] = s
	r.series = append(r.series, s)
	return s
}

// Counter returns the counter registered under (name, labels), creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram registered under (name, labels),
// creating it with the given bucket upper bounds on first use (later
// registrations reuse the first bounds).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, KindHistogram, labels)
	if s.hist == nil {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// scoped is an Instrumenter view that prepends constant labels — how the
// serve manager gives every shard its own {shard="..."} series family.
type scoped struct {
	r    *Registry
	base []Label
}

// Scoped returns an Instrumenter that registers every instrument on r
// with the given labels prepended.
func Scoped(r *Registry, labels ...Label) Instrumenter {
	return &scoped{r: r, base: append([]Label(nil), labels...)}
}

func (s *scoped) all(labels []Label) []Label {
	return append(append([]Label(nil), s.base...), labels...)
}

func (s *scoped) Counter(name, help string, labels ...Label) *Counter {
	return s.r.Counter(name, help, s.all(labels)...)
}

func (s *scoped) Gauge(name, help string, labels ...Label) *Gauge {
	return s.r.Gauge(name, help, s.all(labels)...)
}

func (s *scoped) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return s.r.Histogram(name, help, bounds, s.all(labels)...)
}
