package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// StatusError is a non-2xx reply from the daemon, carrying the HTTP
// status code so callers can branch on it — 429 means backpressure (the
// shard shed the query), 503 means the daemon is shutting down or
// degraded.
type StatusError struct {
	// Code is the HTTP status code (e.g. 429).
	Code int
	// Status is the full status line (e.g. "429 Too Many Requests").
	Status string
	// Msg is the server's JSON error message, if it sent one.
	Msg string
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("serve: %s: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("serve: %s", e.Status)
}

// Client is a small Go client for a dirqd endpoint — the programmatic
// counterpart of `curl`. The zero value is not usable; construct with
// NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a dirqd base URL (e.g. "http://127.0.0.1:8080").
// httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   httpClient,
	}
}

// Query submits one range query and waits for the answer.
func (c *Client) Query(ctx context.Context, req QueryRequestWire) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := c.do(ctx, http.MethodPost, "/query", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// QueryRange is the common case: a range query on one sensor type,
// routed by the daemon's configured policy.
func (c *Client) QueryRange(ctx context.Context, typ string, lo, hi float64) (*Response, error) {
	return c.Query(ctx, QueryRequestWire{Type: typ, Lo: &lo, Hi: &hi})
}

// Stats fetches the live per-shard counters.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	var reply StatsReply
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Healthz checks daemon liveness, returning an error unless every shard
// loop is running.
func (c *Client) Healthz(ctx context.Context) error {
	var reply HealthReply
	return c.do(ctx, http.MethodGet, "/healthz", nil, &reply)
}

// Metrics fetches and decodes the /metrics.json telemetry snapshot.
func (c *Client) Metrics(ctx context.Context) ([]telemetry.SeriesSnapshot, error) {
	var doc telemetry.MetricsJSON
	if err := c.do(ctx, http.MethodGet, "/metrics.json", nil, &doc); err != nil {
		return nil, err
	}
	return doc.Metrics, nil
}

// do executes one HTTP request and decodes the JSON reply, surfacing
// non-2xx statuses as *StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 10<<20))
	if err != nil {
		return err
	}
	if hresp.StatusCode/100 != 2 {
		se := &StatusError{Code: hresp.StatusCode, Status: hresp.Status}
		var er errorReply
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			se.Msg = er.Error
		}
		if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return se
	}
	return json.Unmarshal(raw, out)
}
