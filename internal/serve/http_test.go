package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func startHTTP(t *testing.T, cfgs ...ShardConfig) (*Manager, *Client) {
	t.Helper()
	m := startManager(t, cfgs...)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return m, NewClient(srv.URL, srv.Client())
}

// TestHTTPEndToEnd drives the full stack — Client -> handler -> manager
// -> shard -> simulation — including concurrent queries.
func TestHTTPEndToEnd(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1), testShardConfig("s1", 2))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var infos []ShardInfo
	if err := c.do(ctx, http.MethodGet, "/shards", nil, &infos); err != nil || len(infos) != 2 {
		t.Fatalf("shards: %v, %v", infos, err)
	}

	const n = 16
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			typ, lo, hi := spread(i)
			resps[i], errs[i] = c.QueryRange(ctx, typ.String(), lo, hi)
		}(i)
	}
	wg.Wait()
	shardsSeen := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if resps[i].AnsweredEpoch <= 0 {
			t.Fatalf("query %d: answered at epoch %d", i, resps[i].AnsweredEpoch)
		}
		shardsSeen[resps[i].Shard] = true
	}
	if len(shardsSeen) != 2 {
		t.Fatalf("round-robin used shards %v, want both", shardsSeen)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, st := range stats.Shards {
		total += st.QueriesServed
	}
	if total != n {
		t.Fatalf("stats count %d queries served, want %d", total, n)
	}
}

// TestHTTPSpanDefaultsAndPinning checks omitted lo/hi default to the
// sensor span and that shard pinning works over the wire.
func TestHTTPSpanDefaultsAndPinning(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1), testShardConfig("s1", 2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	r, err := c.Query(ctx, QueryRequestWire{Shard: "s1", Type: "humidity"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shard != "s1" {
		t.Fatalf("pinned to s1, served by %q", r.Shard)
	}
	if r.Lo != 0 || r.Hi != 100 {
		t.Fatalf("span defaults [%v, %v], want [0, 100]", r.Lo, r.Hi)
	}
}

// TestHTTPErrors checks the error statuses clients see.
func TestHTTPErrors(t *testing.T) {
	_, c := startHTTP(t, testShardConfig("s0", 1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Query(ctx, QueryRequestWire{Type: "pressure"}); err == nil ||
		!strings.Contains(err.Error(), "unknown sensor type") {
		t.Fatalf("unknown type: %v", err)
	}
	lo, hi := 5.0, 1.0
	if _, err := c.Query(ctx, QueryRequestWire{Type: "temperature", Lo: &lo, Hi: &hi}); err == nil ||
		!strings.Contains(err.Error(), "empty range") {
		t.Fatalf("empty range: %v", err)
	}
	if _, err := c.Query(ctx, QueryRequestWire{Shard: "nope", Type: "temperature"}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown shard: %v", err)
	}

	// timeout_ms is capped: 10^13 ms would overflow time.Duration to a
	// negative wait and come back as an instant 504.
	if _, err := c.Query(ctx, QueryRequestWire{Type: "temperature", TimeoutMs: 1e13}); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "over the 300000 ms cap") {
		t.Fatalf("huge timeout_ms: %v", err)
	}
	if _, err := c.Query(ctx, QueryRequestWire{Type: "temperature", TimeoutMs: 300000}); err != nil {
		t.Fatalf("timeout_ms at the cap: %v", err)
	}

	// An oversized body is refused with 413 before it is decoded in full.
	big := `{"type":"temperature","shard":"` + strings.Repeat("x", maxQueryBody) + `"}`
	var resp Response
	err := c.do(ctx, http.MethodPost, "/query", []byte(big), &resp)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(se.Msg, "request body over 65536 bytes") {
		t.Fatalf("oversized body: %v", err)
	}

	// Malformed bodies are refused with 400 and a JSON error: an unknown
	// (e.g. misspelled) field, a second object, or trailing garbage.
	for _, tc := range []struct{ body, msg string }{
		{`{"type":"temperature","hi_":25}`, `unknown field "hi_"`},
		{`{"type":"temperature"}{"type":"light"}`, "trailing data after the request object"},
		{`{"type":"temperature"} x`, "invalid character 'x'"},
	} {
		var resp Response
		err := c.do(ctx, http.MethodPost, "/query", []byte(tc.body), &resp)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest ||
			!strings.Contains(se.Msg, "bad JSON body") || !strings.Contains(se.Msg, tc.msg) {
			t.Fatalf("body %s: %v", tc.body, err)
		}
	}
	// Trailing whitespace is not trailing data.
	if err := c.do(ctx, http.MethodPost, "/query", []byte("{\"type\":\"temperature\"}\n\t "), &resp); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
}
