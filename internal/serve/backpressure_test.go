package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSubmitShedsWhenQueueFull: a full admission queue sheds new
// submissions with ErrOverloaded immediately — without disturbing the
// queries already queued, which still answer normally and still replay
// byte-identically from the admission log.
func TestSubmitShedsWhenQueueFull(t *testing.T) {
	cfg := testShardConfig("bp", 7)
	cfg.QueueDepth = 2
	sh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *Response
		err  error
	}
	out := make(chan result, 2)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		typ, lo, hi := spread(i)
		go func() {
			r, err := sh.Submit(ctx, Request{Type: typ, Lo: lo, Hi: hi})
			out <- result{r, err}
		}()
	}
	// The shard is not serving yet, so both submissions stay queued.
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.admit) < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if got := len(sh.admit); got != 2 {
		t.Fatalf("backlog = %d, want 2", got)
	}

	typ, lo, hi := spread(2)
	if _, err := sh.Submit(ctx, Request{Type: typ, Lo: lo, Hi: hi}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on a full queue = %v, want ErrOverloaded", err)
	}
	if got := sh.QueriesShed(); got != 1 {
		t.Errorf("QueriesShed = %d, want 1", got)
	}

	// Serving resolves the queued pair as if nothing was shed.
	sctx, cancel := context.WithCancel(context.Background())
	go sh.Serve(sctx) //nolint:errcheck // claim verified via responses
	live := make([]*Response, 0, 2)
	for i := 0; i < 2; i++ {
		r := <-out
		if r.err != nil {
			t.Fatalf("queued query failed: %v", r.err)
		}
		live = append(live, r.resp)
	}
	cancel()
	<-sh.done
	sort.Slice(live, func(i, j int) bool { return live[i].QueryID < live[j].QueryID })

	if st := sh.Stats(); st.QueriesServed != 2 || st.QueriesShed != 1 {
		t.Errorf("stats served=%d shed=%d, want 2 and 1", st.QueriesServed, st.QueriesShed)
	}

	// The shed query left no trace: the log replays to exactly the two
	// answered responses.
	fresh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Replay(sh.AdmittedLog())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replay returned %d responses, want 2", len(replayed))
	}
	for i, rr := range replayed {
		if !reflect.DeepEqual(live[i], rr) {
			t.Errorf("query %d diverged between live run and replay", i)
		}
	}
}

// TestShedMidChaosReplay: with a depth-2 queue and waves of concurrent
// clients racing a chaos timeline, some queries shed and some answer —
// and the answered ones still replay byte-identically, because shed
// queries never enter the admission log.
func TestShedMidChaosReplay(t *testing.T) {
	cfg := chaosShardConfig("bpchaos", 11)
	cfg.QueueDepth = 2
	// Long step and settle windows make each scheduler pass tens of
	// milliseconds of real simulation work, so a wave of concurrent
	// clients genuinely races a busy scheduler instead of being served
	// one by one between submissions.
	cfg.StepEpochs = 4000
	cfg.SettleEpochs = 4000
	m := startManager(t, cfg)
	sh, _ := m.Shard("bpchaos")

	var mu sync.Mutex
	byID := map[int64]*Response{}
	answered, shed := 0, 0
	for wave := 0; wave < 30 && (shed == 0 || answered < 8); wave++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				typ, lo, hi := spread(i)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				r, err := m.Query(ctx, Request{Type: typ, Lo: lo, Hi: hi})
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					byID[r.QueryID] = r
					answered++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("unexpected query error: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
	if shed == 0 {
		t.Fatal("no queries shed despite a depth-2 queue under 16-way waves")
	}
	if answered == 0 {
		t.Fatal("no queries answered")
	}
	if got := sh.QueriesShed(); got != int64(shed) {
		t.Errorf("shard counted %d shed queries, clients saw %d", got, shed)
	}

	// Let the chaos timeline finish so the log covers every event.
	deadline := time.Now().Add(10 * time.Second)
	for sh.Stats().ChaosPending > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	if sh.Stats().ChaosApplied == 0 {
		t.Fatal("no chaos events applied")
	}

	log := sh.AdmittedLog()
	queries := 0
	for _, e := range log {
		if e.Event == nil {
			queries++
		}
	}
	if queries != answered {
		t.Fatalf("admission log has %d query entries, want exactly the %d answered (shed queries must not be logged)",
			queries, answered)
	}

	fresh, err := NewShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Replay(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != answered {
		t.Fatalf("replay returned %d responses, want %d", len(replayed), answered)
	}
	for _, rr := range replayed {
		lr := byID[rr.QueryID]
		if lr == nil {
			t.Fatalf("replayed query %d has no live counterpart", rr.QueryID)
		}
		if !reflect.DeepEqual(lr, rr) {
			t.Errorf("query %d diverged between live chaos run and replay", rr.QueryID)
		}
	}
}

// TestOverloadedWireFormat pins the 429 contract: status code,
// Retry-After header, JSON error body, and the typed *StatusError the
// client surfaces with the parsed hint.
func TestOverloadedWireFormat(t *testing.T) {
	cfg := testShardConfig("wire", 9)
	cfg.QueueDepth = 1
	// The manager is deliberately never started: the queue fills and
	// stays full, making the 429 path deterministic.
	m, err := NewManager([]ShardConfig{cfg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	hold, cancelHold := context.WithCancel(context.Background())
	defer cancelHold()
	go func() {
		req, _ := http.NewRequestWithContext(hold, http.MethodPost, srv.URL+"/query",
			strings.NewReader(`{"type":"temperature","lo":0,"hi":50}`))
		srv.Client().Do(req) //nolint:errcheck // canceled at test end
	}()
	sh, _ := m.Shard("wire")
	deadline := time.Now().Add(5 * time.Second)
	for len(sh.admit) == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if len(sh.admit) != 1 {
		t.Fatal("queue slot never filled")
	}

	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"type":"temperature","lo":0,"hi":50}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var er errorReply
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error != ErrOverloaded.Error() {
		t.Errorf("error body %q, want %q", er.Error, ErrOverloaded.Error())
	}

	_, qerr := NewClient(srv.URL, srv.Client()).QueryRange(context.Background(), "temperature", 0, 50)
	var se *StatusError
	if !errors.As(qerr, &se) {
		t.Fatalf("client error = %v (%T), want *StatusError", qerr, qerr)
	}
	if se.Code != http.StatusTooManyRequests || se.RetryAfter != time.Second {
		t.Errorf("StatusError = %+v, want code 429 with 1s Retry-After", se)
	}
}
