package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sensordata"
)

// testScenario is a small live network that still has real tree depth.
func testScenario(seed uint64) scenario.Config {
	cfg := scenario.Default()
	cfg.Seed = seed
	cfg.NumNodes = 30
	cfg.Epochs = 1 << 40 // effectively unbounded horizon
	cfg.EpochsPerHour = 100
	return cfg
}

func testShardConfig(id string, seed uint64) ShardConfig {
	return ShardConfig{
		ID:       id,
		Scenario: testScenario(seed),
		// Small step + tick so tests resolve quickly.
		StepEpochs: 20,
		Tick:       200 * time.Microsecond,
	}
}

func startManager(t *testing.T, cfgs ...ShardConfig) *Manager {
	t.Helper()
	m, err := NewManager(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// spread returns the i-th of a few representative query shapes.
func spread(i int) (typ sensordata.Type, lo, hi float64) {
	typ = sensordata.AllTypes()[i%int(sensordata.NumTypes)]
	min, max := typ.Span()
	w := max - min
	switch (i / 4) % 3 {
	case 0: // wide
		return typ, min, max
	case 1: // middle band
		return typ, min + 0.3*w, min + 0.7*w
	default: // narrow high band
		return typ, min + 0.8*w, min + 0.9*w
	}
}

// TestConcurrentQueriesAcrossShardsDeterministic is the acceptance
// criterion: >= 64 concurrent in-flight range queries across >= 2 shards
// (run under -race in CI), and per-shard determinism — replaying each
// shard's admitted sequence against a fresh shard with the same seed
// reproduces every response exactly.
func TestConcurrentQueriesAcrossShardsDeterministic(t *testing.T) {
	const clients = 64
	cfgA := testShardConfig("a", 11)
	cfgB := testShardConfig("b", 22)
	m := startManager(t, cfgA, cfgB)

	live := make([]*Response, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			typ, lo, hi := spread(i)
			shard := "" // half pinned, half round-robin
			if i%2 == 0 {
				shard = []string{"a", "b"}[(i/2)%2]
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			live[i], errs[i] = m.Query(ctx, Request{Shard: shard, Type: typ, Lo: lo, Hi: hi})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	// Index live responses by (shard, queryID); IDs are per-shard unique.
	byKey := map[string]*Response{}
	perShard := map[string]int{}
	for i, r := range live {
		key := fmt.Sprintf("%s/%d", r.Shard, r.QueryID)
		if byKey[key] != nil {
			t.Fatalf("duplicate response key %s", key)
		}
		byKey[key] = r
		perShard[r.Shard]++
		if r.AnsweredEpoch < r.AdmittedEpoch {
			t.Fatalf("query %d answered before admission: %+v", i, r)
		}
	}
	if perShard["a"] == 0 || perShard["b"] == 0 {
		t.Fatalf("queries not spread across shards: %v", perShard)
	}

	// Stop the manager so admission logs are final, then replay each
	// shard single-threaded from a fresh build.
	m.Stop()
	for _, id := range []string{"a", "b"} {
		sh, _ := m.Shard(id)
		log := sh.AdmittedLog()
		if len(log) != perShard[id] {
			t.Fatalf("shard %s: %d admitted, %d responses", id, len(log), perShard[id])
		}
		cfg := testShardConfig(id, map[string]uint64{"a": 11, "b": 22}[id])
		fresh, err := NewShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := fresh.Replay(log)
		if err != nil {
			t.Fatalf("shard %s replay: %v", id, err)
		}
		if len(replayed) != len(log) {
			t.Fatalf("shard %s replay returned %d responses for %d entries", id, len(replayed), len(log))
		}
		for _, rr := range replayed {
			key := fmt.Sprintf("%s/%d", rr.Shard, rr.QueryID)
			lr := byKey[key]
			if lr == nil {
				t.Fatalf("replayed %s has no live counterpart", key)
			}
			if !reflect.DeepEqual(lr, rr) {
				t.Fatalf("shard %s query %d: replay diverged\nlive:   %+v\nreplay: %+v",
					id, rr.QueryID, lr, rr)
			}
		}
	}
}

// TestResponseContents sanity-checks one response against a direct
// ground-truth resolution.
func TestResponseContents(t *testing.T) {
	m := startManager(t, testShardConfig("solo", 7))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Whole-span query: every temperature-mounted node is a source.
	lo, hi := sensordata.Temperature.Span()
	r, err := m.Query(ctx, Request{Type: sensordata.Temperature, Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shard != "solo" {
		t.Fatalf("shard %q", r.Shard)
	}
	if r.Accuracy.Should == 0 {
		t.Fatal("whole-span query should involve nodes")
	}
	if len(r.Matched) != r.Accuracy.Received {
		t.Fatalf("matched %d != received %d", len(r.Matched), r.Accuracy.Received)
	}
	if r.Cost.FloodEquivalent <= 0 || r.Cost.FloodBaseline < r.Cost.FloodEquivalent {
		t.Fatalf("bad cost accounting: %+v", r.Cost)
	}
	if r.AnsweredEpoch-r.AdmittedEpoch != m.shards[0].Config().SettleEpochs {
		t.Fatalf("settle window %d, want %d",
			r.AnsweredEpoch-r.AdmittedEpoch, m.shards[0].Config().SettleEpochs)
	}
	for i := 1; i < len(r.Matched); i++ {
		if r.Matched[i-1] >= r.Matched[i] {
			t.Fatal("Matched not strictly ascending")
		}
	}

	// Stats reflect the served query.
	st := m.Stats()
	if len(st) != 1 || st[0].QueriesServed != 1 || st[0].QueriesInjected != 1 {
		t.Fatalf("stats after one query: %+v", st)
	}
	if !st[0].Running {
		t.Fatal("stats says shard not running")
	}
}

// TestRequestValidation covers the rejection paths.
func TestRequestValidation(t *testing.T) {
	m := startManager(t, testShardConfig("v", 3))
	ctx := context.Background()
	if _, err := m.Query(ctx, Request{Type: sensordata.Type(99), Lo: 0, Hi: 1}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := m.Query(ctx, Request{Type: sensordata.Temperature, Lo: 5, Hi: 1}); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := m.Query(ctx, Request{Shard: "nope", Type: sensordata.Temperature, Lo: 0, Hi: 1}); !errors.Is(err, ErrNoSuchShard) {
		t.Fatalf("unknown shard: %v", err)
	}
}

// TestGracefulShutdown checks that Stop fails outstanding queries with
// ErrShuttingDown instead of hanging, and that late submissions are
// refused.
func TestGracefulShutdown(t *testing.T) {
	cfg := testShardConfig("g", 5)
	cfg.Tick = 50 * time.Millisecond // slow loop so queries are in flight at Stop
	m, err := NewManager([]ShardConfig{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 8
	res := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			typ, lo, hi := spread(i)
			_, err := m.Query(context.Background(), Request{Type: typ, Lo: lo, Hi: hi})
			res <- err
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let some land in the queue
	m.Stop()
	for i := 0; i < n; i++ {
		if err := <-res; err != nil && !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("query failed with %v, want nil or ErrShuttingDown", err)
		}
	}
	for _, sh := range m.Shards() {
		if sh.Running() {
			t.Fatalf("shard %q still running after Stop", sh.ID())
		}
	}
	if _, err := m.Query(context.Background(),
		Request{Type: sensordata.Temperature, Lo: 0, Hi: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown query: %v, want ErrShuttingDown", err)
	}
}

// TestHorizonReached checks that a shard refuses queries once its
// simulation horizon is exhausted.
func TestHorizonReached(t *testing.T) {
	cfg := testShardConfig("h", 9)
	cfg.Scenario.Epochs = 60 // tiny horizon
	m := startManager(t, cfg)

	deadline := time.Now().Add(10 * time.Second)
	for {
		sh, _ := m.Shard("h")
		if sh.Stats().Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never reached its horizon")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := m.Query(context.Background(), Request{Type: sensordata.Temperature, Lo: 0, Hi: 1})
	if !errors.Is(err, ErrHorizonReached) {
		t.Fatalf("got %v, want ErrHorizonReached", err)
	}
}

// TestParseSensorType round-trips all four names.
func TestParseSensorType(t *testing.T) {
	for _, typ := range sensordata.AllTypes() {
		got, err := ParseSensorType(typ.String())
		if err != nil || got != typ {
			t.Fatalf("ParseSensorType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseSensorType("pressure"); err == nil {
		t.Fatal("unknown name accepted")
	}
}
