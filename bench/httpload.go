package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The dirqd-http workload runs dirqd's default deployment behind
// serve.NewHandler on a loopback httptest server, with serve.Client as the
// caller. Its load is sized for a 2-CPU host: two shard loops, two client
// goroutines and at most two connections.
//
// It has no closed-loop capacity phase: on the reference VM, keeping both
// vCPUs busy for minutes (as back-to-back capacity runs do) gets a quarter
// of the VM's time stolen, and capacity then swung by 40 % between runs.
// The open loop uses about one CPU on average and was never throttled.
const (
	httpShards  = 2
	httpClients = 2
	// openRate is the open loop's mean queries per second, sent as a
	// seeded Poisson process. An idle shard steps every 2 ms tick; with
	// evenly spaced sends at 1000 qps each shard's next query fell on that
	// same beat, and which of the two came first swung the median latency
	// between 0.42 and 0.65 ms from run to run on the reference host.
	// Random gaps average over the phase instead. At 250 qps, runs split
	// into two groups whose median latencies were 25 % apart while the
	// reference kernel ran at the same speed; at 800 qps they did not.
	openRate        = 800
	replayAnswers   = 2000 // answers per shard replayed and compared
	httpSetups      = 60
	loadWindows     = 8  // throughput is the median over this many windows
	refsPerWindow   = 20 // reference runs per window (ref.go)
	queryTimeout    = 5 * time.Second
	queryMixEntries = 4096
)

// sensorSpans are the physical ranges of the four sensor types, frozen
// here so that the query mix is an input of the benchmark alone.
var sensorSpans = []struct {
	name   string
	lo, hi float64
}{
	{"temperature", -10, 40},
	{"humidity", 0, 100},
	{"light", 0, 1000},
	{"soil-moisture", 0, 60},
}

// bandWidths are the query bands, as shares of the type's span.
var bandWidths = []float64{0.1, 0.3, 0.6}

type rangeQuery struct {
	typ    string
	lo, hi float64
}

// queryMix draws the seed's sequence of range queries: a sensor type, a
// band width and the band's position, uniformly.
func queryMix(seed uint64) []rangeQuery {
	rng := sim.NewRNG(seed).Stream("dirqd-http")
	out := make([]rangeQuery, queryMixEntries)
	for i := range out {
		t := sensorSpans[rng.Intn(len(sensorSpans))]
		w := bandWidths[rng.Intn(len(bandWidths))] * (t.hi - t.lo)
		lo := t.lo + rng.Float64()*(t.hi-t.lo-w)
		out[i] = rangeQuery{typ: t.name, lo: lo, hi: lo + w}
	}
	return out
}

// httpShardConfigs mirrors dirqd's defaults: fixed δ, step 25, tick 2 ms,
// settle = depth cap + 2, a 256-event trace ring, an unbounded horizon and
// consecutive shard seeds from seed on, skipping any whose scenario cannot
// be built (seed 53's placement, for one, defeats the depth cap).
func httpShardConfigs(seed uint64) ([]serve.ShardConfig, error) {
	cfgs := make([]serve.ShardConfig, httpShards)
	next := seed
	for i := range cfgs {
		sc := scenario.Default()
		sc.TraceCapacity = 256
		sc.Epochs = 1 << 40
		for sc.Seed = next; ; sc.Seed++ {
			if sc.Seed-next > 1000 {
				return nil, fmt.Errorf("no buildable seed in [%d, %d]", next, sc.Seed)
			}
			if _, err := scenario.Build(sc); err == nil {
				break
			}
		}
		next = sc.Seed + 1
		cfgs[i] = serve.ShardConfig{
			ID:         fmt.Sprintf("s%d", i),
			Scenario:   sc,
			StepEpochs: 25,
			Tick:       2 * time.Millisecond,
			Clock:      func() int64 { return int64(time.Since(clockBase)) },
		}
	}
	return cfgs, nil
}

// daemon is one running server with its client.
type daemon struct {
	mgr       *serve.Manager
	srv       *httptest.Server
	transport *http.Transport
	client    *serve.Client
	stopOnce  sync.Once
}

// startDaemon builds and starts the shards and serves them on loopback.
func startDaemon(cfgs []serve.ShardConfig, tr *tracer, parent int64) (*daemon, error) {
	sp := tr.open(parent, "serve.NewManager")
	mgr, err := serve.NewManager(cfgs)
	sp.close()
	if err != nil {
		return nil, err
	}
	sp = tr.open(parent, "serve.Manager.Start")
	err = mgr.Start(context.Background())
	sp.close()
	if err != nil {
		return nil, err
	}
	var h http.Handler = serve.NewHandler(mgr)
	if tr != nil {
		h = tr.handler(h)
	}
	d := &daemon{
		mgr:       mgr,
		srv:       httptest.NewServer(h),
		transport: &http.Transport{MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients},
	}
	var rt http.RoundTripper = d.transport
	if tr != nil {
		rt = tracingTransport{rt}
	}
	d.client = serve.NewClient(d.srv.URL, &http.Client{Transport: rt})
	return d, nil
}

// healthz checks that every shard loop serves.
func (d *daemon) healthz(tr *tracer, parent int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	sp := tr.open(parent, "serve.Client.Healthz")
	defer sp.close()
	return d.client.Healthz(ctx)
}

// stop closes the server (waiting for in-flight requests) and the shards.
// Later calls do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.transport.CloseIdleConnections()
		d.srv.Close()
		d.mgr.Stop()
	})
}

// httpRun is one pass of the workload against one daemon.
type httpRun struct {
	d      *daemon
	tr     *tracer
	qs     []rangeQuery
	next   atomic.Int64 // index of the next query in qs
	gaps   *sim.RNG     // draws the gaps between sends
	settle int64

	mu       sync.Mutex
	oc       *outcome
	kept     map[string]map[int64]*serve.Response // shard → query ID → live answer
	latency  []float64                            // ms from the scheduled send to the answer
	due      []time.Time                          // each latency's scheduled send
	lag      []float64                            // ms the send ran late
	finished []time.Time                          // when each correct answer arrived
}

// runHTTP is the dirqd-http workload: set-ups, then queries on a seeded
// schedule of openRate per second — a tenth of the budget to warm up, the
// rest measured — then a replay check of the answers.
func runHTTP(o runOpts, tr *tracer) (*outcome, error) {
	oc := newOutcome()
	root := tr.open(0, "bench.dirqd-http")
	cfgs, err := httpShardConfigs(o.seed)
	if err != nil {
		return nil, err
	}
	bpn, err := httpBytesPerNode(cfgs)
	if err != nil {
		return nil, err
	}
	oc.add("bytes_per_node", bpn)

	var lay *simLayers
	if tr != nil {
		lay = &simLayers{}
		for _, c := range cfgs {
			lay.topology(c.Scenario, tr, root.id())
			sp := tr.open(root.id(), "scenario.Build")
			_, err := scenario.Build(c.Scenario)
			lay.build = append(lay.build, sp.close())
			if err != nil {
				return nil, err
			}
		}
	}

	// Set-up is timed until the server listens. The first request's round
	// trip after it (0.5 to 1.1 ms on the reference host) is loopback and
	// scheduler time, which varied by half from run to run, so the health
	// check that follows is not part of it. Building a shard costs what its
	// placement costs, which depends on its seed, so the set-ups cycle
	// through the shard seeds of the next httpSetups run seeds; the one
	// that serves the load, on the run seed's own shards, comes last.
	setups := httpSetups
	if o.smoke {
		setups = 4
	}
	var d *daemon
	for i := setups - 1; i >= 0; i-- {
		c := cfgs
		if i > 0 {
			if c, err = httpShardConfigs(o.seed + uint64(i)); err != nil {
				return nil, err
			}
		}
		gc(tr, root.id())
		sp := tr.open(root.id(), "bench.setup")
		before := hostRef.run()
		t0 := now()
		d, err = startDaemon(c, tr, sp.id())
		setup := time.Since(t0)
		setup = atRef(setup, (before+hostRef.run())/2)
		if err == nil {
			if err = d.healthz(tr, sp.id()); err != nil {
				d.stop()
			}
		}
		sp.close()
		if err != nil {
			return nil, err
		}
		oc.add("setup_s", setup.Seconds())
		if i > 0 {
			d.stop()
		}
	}
	defer d.stop()
	h := &httpRun{
		d: d, tr: tr, qs: queryMix(o.seed), oc: oc,
		gaps:   sim.NewRNG(o.seed).Stream("dirqd-http/arrivals"),
		settle: int64(cfgs[0].Scenario.MaxDepth) + 2,
		kept:   map[string]map[int64]*serve.Response{},
	}

	warm, load := o.budget/10, o.budget*9/10
	sp := tr.open(root.id(), "bench.warmup")
	h.openLoop(sp.id(), now(), warm)
	sp.close()
	h.latency, h.due, h.lag, h.finished = nil, nil, nil, nil

	epochsBefore, _ := shardTotals(d.mgr, cfgs)
	sp = tr.open(root.id(), "bench.load")
	loadStart := now()
	// The marker reads the CPU time at every window boundary and runs the
	// reference kernel refsPerWindow times a window, evenly spaced.
	cpuMarks := make([]time.Duration, loadWindows+1)
	refs := make([][]time.Duration, loadWindows)
	var marker sync.WaitGroup
	marker.Add(1)
	go func() {
		defer marker.Done()
		for k := range loadWindows*refsPerWindow + 1 {
			sleepUntil(loadStart.Add(load * time.Duration(k) / (loadWindows * refsPerWindow)))
			i := k / refsPerWindow
			if k%refsPerWindow == 0 {
				cpuMarks[i] = cpuTime()
			}
			if i < loadWindows {
				rsp := tr.open(sp.id(), "bench.ref")
				refs[i] = append(refs[i], hostRef.run())
				rsp.close()
			}
		}
	}()
	h.openLoop(sp.id(), loadStart, load)
	marker.Wait()
	sp.close()
	epochsAfter, shed := shardTotals(d.mgr, cfgs)
	loadWall := time.Since(loadStart)
	for _, qps := range windowRates(h.finished, loadStart, load, cpuMarks, refs) {
		oc.add("throughput_per_cpu_s", qps)
	}
	oc.refs = slices.Concat(refs...)
	refMedians := make([]time.Duration, loadWindows)
	for i := range refs {
		refMedians[i] = medianDuration(refs[i])
	}
	for j, l := range h.latency {
		i := min(max(int(h.due[j].Sub(loadStart)*loadWindows/load), 0), loadWindows-1)
		oc.add("latency_p50_ms", l*float64(refNominal)/float64(refMedians[i]))
	}
	var snaps []telemetry.SeriesSnapshot
	if tr != nil {
		if snaps, err = d.client.Metrics(context.Background()); err != nil {
			return nil, err
		}
	}
	d.stop()

	sp = tr.open(root.id(), "bench.replay")
	err = h.replayCheck(cfgs)
	sp.close()
	root.close()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		oc.layer = h.layers(tr.recorded(), lay, snaps, cfgs[0].Scenario.NumNodes)
		oc.layer["serve.queries_shed"] = float64(shed)
		oc.layer["serve.shard_epochs_per_s"] = float64(epochsAfter-epochsBefore) / loadWall.Seconds()
	}
	return oc, nil
}

// shardTotals sums the shards' current epochs and shed queries.
func shardTotals(mgr *serve.Manager, cfgs []serve.ShardConfig) (epochs, shed int64) {
	for _, c := range cfgs {
		if sh, ok := mgr.Shard(c.ID); ok {
			st := sh.Stats()
			epochs += st.Epoch
			shed += st.QueriesShed
		}
	}
	return epochs, shed
}

// httpBytesPerNode is the GC-settled live heap that building the shards
// adds, per simulated node.
func httpBytesPerNode(cfgs []serve.ShardConfig) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	mgr, err := serve.NewManager(cfgs)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(mgr)
	nodes := 0
	for _, c := range cfgs {
		nodes += c.Scenario.NumNodes
	}
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(nodes), nil
}

// ask sends one query and checks the answer. It returns when the answer
// arrived and whether it was correct.
func (h *httpRun) ask(parent int64) (time.Time, bool) {
	q := h.qs[int(h.next.Add(1)-1)%len(h.qs)]
	sp := h.tr.open(parent, "serve.client")
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	if id := sp.id(); id != 0 {
		sp.s.Req = id
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	resp, err := h.d.client.QueryRange(ctx, q.typ, q.lo, q.hi)
	sp.close()
	done := now()
	if err == nil {
		err = h.check(resp, q)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.oc.attempted++
	if err != nil {
		h.oc.fail("query %s [%g, %g]: %v", q.typ, q.lo, q.hi, err)
	}
	return done, err == nil
}

// check validates one answer and keeps the first replayAnswers of each
// shard for the replay check.
func (h *httpRun) check(resp *serve.Response, q rangeQuery) error {
	switch {
	case resp.Type != q.typ || resp.Lo != q.lo || resp.Hi != q.hi:
		return fmt.Errorf("answer is for %s [%g, %g]", resp.Type, resp.Lo, resp.Hi)
	case resp.AnsweredEpoch-resp.AdmittedEpoch != h.settle:
		return fmt.Errorf("answered %d epochs after admission, want %d", resp.AnsweredEpoch-resp.AdmittedEpoch, h.settle)
	case !slices.IsSorted(resp.Matched) || len(resp.Sources) > len(resp.Matched):
		return fmt.Errorf("malformed node sets")
	case !(resp.Accuracy.OvershootPct >= 0 && resp.Accuracy.OvershootPct <= 100):
		return fmt.Errorf("overshoot %v%% outside [0, 100]", resp.Accuracy.OvershootPct)
	}
	if resp.QueryID < replayAnswers {
		h.mu.Lock()
		if h.kept[resp.Shard] == nil {
			h.kept[resp.Shard] = map[int64]*serve.Response{}
		}
		h.kept[resp.Shard][resp.QueryID] = resp
		h.mu.Unlock()
	}
	return nil
}

// openLoop sends queries from start for dur, with exponentially
// distributed gaps averaging 1/openRate, each by whichever of the
// httpClients callers is free. A query's latency runs from its scheduled
// send time, so a stall also delays the queries due behind it. A failed
// query counts as failed and keeps its latency.
func (h *httpRun) openLoop(parent int64, start time.Time, dur time.Duration) {
	var schedule []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(h.gaps.ExpFloat64() * float64(time.Second) / openRate)
		if at >= dur {
			break
		}
		schedule = append(schedule, at)
	}
	var slot atomic.Int64
	var wg sync.WaitGroup
	for range httpClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := slot.Add(1) - 1
				if i >= int64(len(schedule)) {
					return
				}
				due := start.Add(schedule[i])
				sleepUntil(due)
				lag := time.Since(due)
				done, ok := h.ask(parent)
				h.mu.Lock()
				h.latency = append(h.latency, millis(done.Sub(due)))
				h.due = append(h.due, due)
				h.lag = append(h.lag, millis(lag))
				if ok {
					h.finished = append(h.finished, done)
				}
				h.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// windowRates splits [start, start+dur) into len(refs) equal windows and
// returns the completions per second of process CPU time in each, at the
// reference speed. cpuMarks holds the CPU time at the window boundaries
// and refs the reference runs in each window, whose own time is left out.
func windowRates(done []time.Time, start time.Time, dur time.Duration, cpuMarks []time.Duration, refs [][]time.Duration) []float64 {
	n := len(refs)
	counts := make([]int, n)
	for _, t := range done {
		if i := int(t.Sub(start) * time.Duration(n) / dur); i >= 0 && i < n {
			counts[i]++
		}
	}
	out := make([]float64, n)
	for i, c := range counts {
		cpu := cpuMarks[i+1] - cpuMarks[i]
		for _, r := range refs[i] {
			cpu -= r
		}
		out[i] = float64(c) / atRef(cpu, medianDuration(refs[i])).Seconds()
	}
	return out
}

// replayCheck replays, on a fresh shard, the prefix of each live shard's
// admission log that determines its first replayAnswers answers, and
// requires the replayed answers to be byte-identical to the live ones. The
// prefix holds every admission before the last kept answer's epoch: a
// shard resolves the answers due at an epoch before it admits that
// epoch's queries, so later admissions cannot change them.
func (h *httpRun) replayCheck(cfgs []serve.ShardConfig) error {
	for _, cfg := range cfgs {
		kept := h.kept[cfg.ID]
		if len(kept) == 0 {
			h.oc.fail("shard %s: no answers to replay", cfg.ID)
			continue
		}
		var cut int64
		for _, r := range kept {
			cut = max(cut, r.AnsweredEpoch)
		}
		sh, ok := h.d.mgr.Shard(cfg.ID)
		if !ok {
			return fmt.Errorf("shard %s missing", cfg.ID)
		}
		var prefix []serve.AdmittedQuery
		for _, e := range sh.AdmittedLog() {
			if e.Epoch < cut {
				prefix = append(prefix, e)
			}
		}
		fresh, err := serve.NewShard(cfg)
		if err != nil {
			return err
		}
		replayed, err := fresh.Replay(prefix)
		if err != nil {
			return fmt.Errorf("shard %s: replay: %w", cfg.ID, err)
		}
		for id, live := range kept {
			h.oc.attempted++
			if id >= int64(len(replayed)) {
				h.oc.fail("shard %s: query %d missing from the replay", cfg.ID, id)
				continue
			}
			a, errA := json.Marshal(live)
			b, errB := json.Marshal(replayed[id])
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				h.oc.fail("shard %s: query %d replays differently", cfg.ID, id)
			}
		}
	}
	return nil
}

// layers derives the per-layer metrics of a traced pass on shards of
// nodes nodes each.
func (h *httpRun) layers(spans []span, lay *simLayers, snaps []telemetry.SeriesSnapshot, nodes int) map[string]float64 {
	client := inUnit(durations(spans, "serve.client"), time.Microsecond)
	handler := inUnit(durations(spans, "serve.handler"), time.Microsecond)
	handlerByReq := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handlerByReq[s.Req] = s.dur()
		}
	}
	var transport []float64
	for _, s := range spans {
		if hd, ok := handlerByReq[s.ID]; ok && s.Name == "serve.client" {
			transport = append(transport, float64((s.dur()-hd).Nanoseconds())/1e3)
		}
	}
	// The submit histogram's first bucket ends at 1 ms, so its quantiles
	// are interpolated at that resolution; its mean (sum over count) is
	// exact, and so is the codec time derived from it.
	submit := mergedHistogram(snaps, "dirq_serve_query_latency_seconds")
	m := registryLayers(snaps, float64(nodes))
	for k, v := range lay.buildLayers() {
		m[k] = v
	}
	m["serve.client_us.p50"] = percentile(client, 50)
	m["serve.client_us.p99"] = percentile(client, 99)
	m["serve.handler_us.p50"] = percentile(handler, 50)
	m["serve.handler_us.p99"] = percentile(handler, 99)
	m["serve.transport_us.p50"] = percentile(transport, 50)
	if submit.Count > 0 && len(handler) > 0 {
		m["serve.submit_us.mean"] = submit.Sum / float64(submit.Count) * 1e6
		m["serve.submit_us.p99"] = submit.Quantile(0.99) * 1e6
		m["serve.codec_us.mean"] = mean(handler) - m["serve.submit_us.mean"]
	}
	m["serve.query_failures"] = registrySum(snaps, "dirq_serve_query_failures_total")
	m["serve.query_p99_ms"] = percentile(h.latency, 99)
	m["serve.gen_lag_ms.p99"] = percentile(h.lag, 99)
	return m
}

// registrySum totals one metric over its label sets.
func registrySum(snaps []telemetry.SeriesSnapshot, name string) float64 {
	total := 0.0
	for _, s := range snaps {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// mergedHistogram merges one histogram's label sets, which share bucket
// bounds.
func mergedHistogram(snaps []telemetry.SeriesSnapshot, name string) telemetry.SeriesSnapshot {
	var merged telemetry.SeriesSnapshot
	for _, s := range snaps {
		if s.Name != name {
			continue
		}
		if merged.Buckets == nil {
			merged.Buckets = slices.Clone(s.Buckets)
		} else {
			for i := range merged.Buckets {
				merged.Buckets[i].Count += s.Buckets[i].Count
			}
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
	}
	return merged
}
