package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// HTTP request share Req (the client span's ID). Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's package prefix ("scenario.Step" → "scenario").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only for a nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// openSpan is a started span; close records it.
type openSpan struct {
	t *tracer
	s span
}

// open starts a span under parent (0 for a root).
func (t *tracer) open(parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}}
}

// id is the span's ID, or 0 when untraced.
func (o openSpan) id() int64 { return o.s.ID }

// close ends and records the span, returning its duration (0 when
// untraced).
func (o openSpan) close() time.Duration {
	if o.t == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// recorded returns a copy of the spans closed so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations lists the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may overlap one another (concurrent requests) and may run past
// their parent's end; neither is counted twice or outside the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, p.Start), min(k.End, p.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else {
				curEnd = max(curEnd, hi)
			}
		}
		covered += curEnd - cur
		out[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return out
}

// layerSelfTimes sums self time by layer.
func layerSelfTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// writeSpans stores the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanHeader carries the client span's ID to the server side, so the
// handler span joins the request that caused it.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// tracingTransport stamps each request with the client span ID found in
// its context.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// handler wraps next in a "serve.handler" span per traced request,
// parented to and sharing the request ID of the client span named in the
// header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		sp := t.open(req, "serve.handler")
		sp.s.Req = req
		next.ServeHTTP(w, r)
		sp.close()
	})
}
