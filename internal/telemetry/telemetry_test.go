package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestNilInstrumentsAreNoOps: the inertness contract — every method on a
// nil instrument is callable and does nothing.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Errorf("nil counter Value() = %d, want 0", got)
	}
	var g *Gauge
	g.Set(3)
	if got := g.Value(); got != 0 {
		t.Errorf("nil gauge Value() = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Sum() != 0 {
		t.Errorf("nil histogram Sum = %v, want 0", h.Sum())
	}
}

// TestRegistryIdempotent: the same (name, labels) yields the same
// instrument — in any label order — and a different label value yields a
// distinct series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Label{"shard", "s0"}, Label{"kind", "full"})
	b := r.Counter("x_total", "", Label{"kind", "full"}, Label{"shard", "s0"})
	if a != b {
		t.Error("same (name, labels) in different order returned distinct counters")
	}
	c := r.Counter("x_total", "", Label{"kind", "quiet"}, Label{"shard", "s0"})
	if a == c {
		t.Error("distinct label values returned the same counter")
	}
	if n := len(r.Snapshot()); n != 2 {
		t.Errorf("registry has %d series, want 2", n)
	}
}

// TestKindClashPanics: re-registering a name as a different kind is a
// programming error and must panic rather than silently alias.
func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestConcurrentWrites hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this is the data-race audit, and
// the final counter/histogram totals must be exact.
func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 4})
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i % 5))
				if i%64 == 0 {
					r.Snapshot() // concurrent scrapes must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.count.Load(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if v := g.Value(); v < 0 || v >= per {
		t.Errorf("gauge = %d, want a value some worker set, in [0, %d)", v, per)
	}
	if want := float64(workers) * per * (0 + 1 + 2 + 3 + 4) / 5; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistogramBucketEdges: a sample exactly on an upper bound lands in
// that bucket (le is inclusive, as in Prometheus), and overflow lands in
// +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()[0]
	// Cumulative: <=1 holds {0.5, 1}; <=2 adds {1.0000001, 2}; <=4 adds
	// {4}; +Inf adds {100}.
	want := []BucketCount{{1, 2}, {2, 4}, {4, 5}, {infOnWire, 6}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(snap.Buckets), len(want))
	}
	for i, b := range snap.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = {%v %d}, want {%v %d}", i, b.LE, b.Count, want[i].LE, want[i].Count)
		}
	}
	if snap.Count != 6 {
		t.Errorf("count = %d, want 6", snap.Count)
	}
	if snap.Sum != 0.5+1+1.0000001+2+4+100 {
		t.Errorf("sum = %v", snap.Sum)
	}
}

// TestHistogramBadBounds: non-ascending or non-finite bounds are rejected
// at registration.
func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{2, 1}, {1, 1}, {math.Inf(1)}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewRegistry().Histogram("h", "", bounds)
		}()
	}
}

// TestQuantile: interpolation within buckets and the overflow clamp.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%2)*10 + 5) // 50 samples in (0,10], 50 in (10,20]
	}
	snap := r.Snapshot()[0]
	if p50 := snap.Quantile(0.50); p50 != 10 {
		t.Errorf("p50 = %v, want 10 (upper edge of the first bucket)", p50)
	}
	if p75 := snap.Quantile(0.75); p75 != 15 {
		t.Errorf("p75 = %v, want 15 (midway through the second bucket)", p75)
	}
	h.Observe(1e9) // one overflow sample
	snap = r.Snapshot()[0]
	if p := snap.Quantile(0.9999); p != 40 {
		t.Errorf("overflow quantile = %v, want the last finite bound 40", p)
	}
	var empty SeriesSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile != 0")
	}
}

// TestPrometheusText: family headers, sample lines, histogram expansion
// and label escaping, against the exact expected exposition.
func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "things\ndone", Label{"q", `va"l\ue`}).Add(3)
	r.Gauge("b", "").Set(-2)
	h := r.Histogram("c_seconds", "latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total things\ndone
# TYPE a_total counter
a_total{q="va\"l\\ue"} 3
# TYPE b gauge
b -2
# HELP c_seconds latency
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="1"} 1
c_seconds_bucket{le="+Inf"} 2
c_seconds_sum 2.25
c_seconds_count 2
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteJSON: the JSON document round-trips through the public wire
// types (what serve.Client.Metrics decodes).
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", Label{"shard", "s0"}).Add(7)
	r.Histogram("lat", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc MetricsJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("decoded %d metrics, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "a_total" || doc.Metrics[0].Value != 7 ||
		doc.Metrics[0].Labels["shard"] != "s0" {
		t.Errorf("counter decoded as %+v", doc.Metrics[0])
	}
	if doc.Metrics[1].Count != 1 || doc.Metrics[1].Sum != 0.5 {
		t.Errorf("histogram decoded as %+v", doc.Metrics[1])
	}
}

// TestScoped: a scoped view prepends its constant labels, and the same
// underlying series is shared with direct registration.
func TestScoped(t *testing.T) {
	r := NewRegistry()
	sc := Scoped(r, Label{"shard", "s1"})
	c1 := sc.Counter("x_total", "", Label{"kind", "full"})
	c2 := r.Counter("x_total", "", Label{"shard", "s1"}, Label{"kind", "full"})
	if c1 != c2 {
		t.Error("scoped and direct registration returned distinct counters")
	}
	snap := r.Snapshot()[0]
	if snap.Labels["shard"] != "s1" || snap.Labels["kind"] != "full" {
		t.Errorf("scoped labels = %v", snap.Labels)
	}
}

// TestSnapshotSorted: snapshot order is (name, labels), independent of
// registration order, so exposition is deterministic.
func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	r.Counter("a_total", "", Label{"shard", "s1"})
	r.Counter("a_total", "", Label{"shard", "s0"})
	var names []string
	for _, s := range r.Snapshot() {
		names = append(names, s.Name+"{"+labelString(s.Labels)+"}")
	}
	want := `a_total{shard="s0"} a_total{shard="s1"} z_total{}`
	if got := strings.Join(names, " "); got != want {
		t.Errorf("snapshot order = %s, want %s", got, want)
	}
}

// TestHotPathAllocations: the inertness budget — instrument writes must
// not allocate, whether the instrument is live or nil. This is what keeps
// telemetry invisible to the simulator's allocation profile.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LatencyBuckets())
	var nilC *Counter
	var nilH *Histogram
	for name, fn := range map[string]func(){
		"Counter.Inc":     func() { c.Inc() },
		"Counter.Add":     func() { c.Add(2) },
		"Gauge.Set":       func() { g.Set(1) },
		"Histogram.Obs":   func() { h.Observe(0.01) },
		"nil Counter.Inc": func() { nilC.Inc() },
		"nil Hist.Obs":    func() { nilH.Observe(1) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
	}
}

// TestExponentialBuckets: the ladder and its argument checks.
func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExponentialBuckets(0, 2, 3) did not panic")
		}
	}()
	ExponentialBuckets(0, 2, 3)
}
