package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sensordata"
	"repro/internal/telemetry"
)

// TestManagerAutoTelemetry: the manager attaches one registry across all
// shards, each scoped by a {shard="..."} label, and wires the scenario
// instrumentation too.
func TestManagerAutoTelemetry(t *testing.T) {
	m := startManager(t, testShardConfig("a", 11), testShardConfig("b", 22))
	reg := m.Telemetry()
	if reg == nil {
		t.Fatal("Manager.Telemetry() is nil")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Query(ctx, Request{Shard: "a", Type: sensordata.Temperature, Lo: 0, Hi: 50}); err != nil {
		t.Fatal(err)
	}
	shards := map[string]bool{}
	families := map[string]bool{}
	for _, s := range reg.Snapshot() {
		families[s.Name] = true
		if sh := s.Labels["shard"]; sh != "" {
			shards[sh] = true
		} else {
			t.Errorf("series %s has no shard label", s.Name)
		}
	}
	if !shards["a"] || !shards["b"] {
		t.Errorf("shard labels = %v, want both a and b", shards)
	}
	for _, want := range []string{
		"dirq_epochs_total",                // protocol layer
		"dirq_radio_tx_total",              // radio layer
		"dirq_engine_ticker_runs_total",    // epoch clock
		"dirq_serve_queries_served_total",  // serving layer
		"dirq_serve_admission_queue_depth", // admission gauge
	} {
		if !families[want] {
			t.Errorf("metric family %s not registered", want)
		}
	}
	if len(families) < 10 {
		t.Errorf("only %d metric families registered, want >= 10", len(families))
	}
}

// TestLatencyClockIsolation: the injected wall clock feeds only the
// latency histogram — responses are identical with and without it, and
// the histogram observes exactly the submitted queries.
func TestLatencyClockIsolation(t *testing.T) {
	var fake atomic.Int64
	cfg := testShardConfig("clocked", 33)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	cfg.Clock = func() int64 { return fake.Add(int64(time.Millisecond)) }
	m := startManager(t, cfg)

	const n = 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	live := make([]*Response, n)
	for i := range live {
		typ, lo, hi := spread(i)
		r, err := m.Query(ctx, Request{Type: typ, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		live[i] = r
	}
	m.Stop()

	var lat telemetry.SeriesSnapshot
	for _, s := range reg.Snapshot() {
		if s.Name == "dirq_serve_query_latency_seconds" {
			lat = s
		}
	}
	if lat.Count != n {
		t.Errorf("latency histogram observed %d queries, want %d", lat.Count, n)
	}
	if lat.Sum <= 0 {
		t.Errorf("latency histogram sum = %v, want > 0", lat.Sum)
	}

	// Replay on a fresh shard with no telemetry and no clock: responses
	// must match byte for byte — the clock is invisible to resolution.
	sh, _ := m.Shard("clocked")
	fresh, err := NewShard(testShardConfig("clocked", 33))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Replay(sh.AdmittedLog())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != n {
		t.Fatalf("replay returned %d responses, want %d", len(replayed), n)
	}
	for i, rr := range replayed {
		if !reflect.DeepEqual(live[i], rr) {
			t.Errorf("query %d diverged between clocked live run and bare replay", i)
		}
	}
}

// TestMetricsEndpoints: /metrics serves well-formed Prometheus text with
// a healthy number of families, /metrics.json decodes through the public
// client, and /stats carries the server build/runtime section.
func TestMetricsEndpoints(t *testing.T) {
	m := startManager(t, testShardConfig("s0", 5))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Query(ctx, Request{Type: sensordata.Temperature, Lo: 0, Hi: 50}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m, ServerInfo{Version: "test-build", Now: time.Now}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	typeLines := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines++
		}
	}
	if typeLines < 10 {
		t.Errorf("/metrics exposes %d families, want >= 10:\n%s", typeLines, text)
	}
	if !strings.Contains(text, `dirq_serve_queries_served_total{shard="s0"} 1`) {
		t.Errorf("/metrics missing the served-queries sample:\n%s", text)
	}

	c := NewClient(srv.URL, nil)
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) < 10 {
		t.Errorf("/metrics.json returned %d series, want >= 10", len(metrics))
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server == nil {
		t.Fatal("/stats has no server section despite ServerInfo")
	}
	if stats.Server.Version != "test-build" {
		t.Errorf("server version = %q, want test-build", stats.Server.Version)
	}
	if stats.Server.Goroutines <= 0 || stats.Server.HeapAllocBytes <= 0 {
		t.Errorf("runtime stats not populated: %+v", stats.Server)
	}
	if stats.Server.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", stats.Server.UptimeSeconds)
	}

	// Without ServerInfo the section stays absent (backward-compatible
	// wire format).
	bare := httptest.NewServer(NewHandler(m))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, ok := reply["server"]; ok {
		t.Error("/stats includes a server section without ServerInfo")
	}
}

// TestServeMetricHelpTexts guards against copy-paste help strings: every
// dirq_serve_* metric's help must actually describe the metric it is
// attached to — it has to mention at least one word from the metric's own
// name, and timing metrics must state their unit. (A past bug shipped
// dirq_serve_admission_queue_depth with the drain-batch counter's help
// text; that string mentions neither "admission", "queue", nor "depth"
// and fails this test.)
func TestServeMetricHelpTexts(t *testing.T) {
	cfg := testShardConfig("help", 3)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := NewShard(cfg); err != nil {
		t.Fatal(err)
	}

	checked := 0
	for _, s := range reg.Snapshot() {
		if !strings.HasPrefix(s.Name, "dirq_serve_") {
			continue
		}
		checked++
		if s.Help == "" {
			t.Errorf("%s has no help text", s.Name)
			continue
		}
		help := strings.ToLower(s.Help)
		matched := false
		for _, w := range strings.Split(strings.TrimPrefix(s.Name, "dirq_serve_"), "_") {
			// "total"/"seconds" are unit suffixes, not subjects; short
			// words ("le", "sum") are too ambiguous to anchor on.
			if len(w) < 4 || w == "total" || w == "seconds" {
				continue
			}
			// Prefix match so "queries" in the name matches "query" in
			// prose and vice versa.
			if strings.Contains(help, w[:4]) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s help %q does not mention anything from the metric name", s.Name, s.Help)
		}
		if strings.HasSuffix(s.Name, "_seconds") && !strings.Contains(help, "second") {
			t.Errorf("%s help %q does not state the unit (seconds)", s.Name, s.Help)
		}
	}
	if checked < 8 {
		t.Errorf("only %d dirq_serve_ metrics checked, want >= 8", checked)
	}
}
