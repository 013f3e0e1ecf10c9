package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/telemetry"
)

// ErrShuttingDown is returned for queries caught by a shard shutdown.
var ErrShuttingDown = errors.New("serve: shard shutting down")

// ErrHorizonReached is returned when a query is admitted into a shard
// whose simulation has already reached its configured epoch horizon.
var ErrHorizonReached = errors.New("serve: shard reached its epoch horizon")

// ErrOverloaded is returned by Submit when the admission queue already
// holds QueueDepth queries: the query is shed immediately instead of
// queueing without bound. A shed query never enters the admission log,
// so Replay of the log is unaffected by shedding. The HTTP layer maps
// this to 429 Too Many Requests with a Retry-After hint, which
// serve.Client surfaces as StatusError.RetryAfter.
var ErrOverloaded = errors.New("serve: admission queue full")

// ShardConfig parameterizes one live shard.
type ShardConfig struct {
	// ID names the shard in requests, responses, and stats.
	ID string
	// Scenario is the simulation hosted by the shard. Its built-in query
	// workload is always disabled — clients are the workload — and its
	// Epochs field becomes the serving horizon (set it large for an
	// effectively unbounded daemon).
	Scenario scenario.Config
	// StepEpochs caps how many epochs one scheduler pass advances before
	// the admission queue is drained again (default 25). Smaller values
	// admit queries sooner; larger ones simulate faster.
	StepEpochs int64
	// SettleEpochs is the fixed window between a query's admission and
	// its answer, covering directed dissemination down the tree (default
	// Scenario.MaxDepth + 2). Fixed — not "when it looks done" — so that
	// answers are a deterministic function of the admitted sequence.
	SettleEpochs int64
	// Tick paces the simulation while idle: each pass advances StepEpochs
	// and then waits Tick for queries (default 2ms; queries interrupt the
	// wait, and pending queries skip it entirely).
	Tick time.Duration
	// QueueDepth bounds the admission queue (default 256). Submit sheds
	// with ErrOverloaded — it does not block — once the queue is full.
	QueueDepth int
	// Chaos optionally schedules scenario-dynamics events (node kills and
	// cascades, sensor regime shifts and drift, threshold retuning) that
	// fire at their exact epochs while the shard serves live queries.
	// Workload ops (burst, coverage) are rejected — clients are the
	// workload here. Applied events are recorded in the admission log, so
	// Replay reproduces a chaos shard's responses exactly.
	Chaos []script.Event
	// Telemetry, when non-nil, registers the shard's serving instruments
	// (admissions, latency histogram, queue depth, chaos events) on the
	// given registry. Pass a telemetry.Scoped view to label the series
	// per shard. Independent of Scenario.Telemetry, which instruments the
	// hosted simulation itself.
	Telemetry telemetry.Instrumenter
	// Clock returns wall time in nanoseconds, used only for the query
	// latency histogram; nil disables latency observation. Injected by
	// the cmd layer — nothing inside the simulation may read wall time.
	Clock func() int64
}

// withDefaults fills unset knobs.
func (c ShardConfig) withDefaults() ShardConfig {
	if c.StepEpochs <= 0 {
		c.StepEpochs = 25
	}
	if c.SettleEpochs <= 0 {
		c.SettleEpochs = int64(c.Scenario.MaxDepth) + 2
	}
	if c.Tick <= 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// outcome is a resolved pendingQuery.
type outcome struct {
	resp *Response
	err  error
}

// pendingQuery is one client query waiting for admission.
type pendingQuery struct {
	req Request
	out chan outcome // buffered(1); written exactly once
}

// inflight is an admitted query waiting out its settle window.
type inflight struct {
	pq       *pendingQuery // nil during Replay
	q        query.Query
	rec      *core.QueryRecord
	floodEq  int64
	admitted int64
	deadline int64
}

// Shard hosts one live simulated network and serves queries against it.
// All simulation state is guarded by mu; the loop goroutine holds it
// while stepping, Stats and Replay acquire it for reads and replays.
type Shard struct {
	cfg    ShardConfig
	admit  chan *pendingQuery
	done   chan struct{} // closed when the loop exits
	driven atomic.Bool   // loop started or Replay used
	shed   atomic.Int64  // queries refused with ErrOverloaded

	// mu guards everything below (the runner is not thread-safe).
	mu       sync.Mutex
	runner   *scenario.Runner
	nextID   int64
	served   int64
	admitted []AdmittedQuery
	// chaos is the expanded event timeline; nextChaos indexes the first
	// event not yet applied.
	chaos        []script.Event
	nextChaos    int
	chaosApplied int
	// Running accuracy aggregates over answered queries, accumulated at
	// answer time so Stats stays O(1) however long the shard lives.
	aggShouldPct    float64
	aggReceivedPct  float64
	aggOvershootPct float64

	tel shardTelemetry
}

// shardTelemetry holds the shard's serving instruments. The zero value
// disables them all (every instrument is nil-safe); none of them feeds
// back into admission, stepping or resolution, so an instrumented shard
// answers byte-identically to a bare one.
type shardTelemetry struct {
	admitted   *telemetry.Counter
	served     *telemetry.Counter
	failed     *telemetry.Counter
	shed       *telemetry.Counter
	chaos      *telemetry.Counter
	latency    *telemetry.Histogram
	queueDepth *telemetry.Gauge
	inflight   *telemetry.Gauge
}

// NewShard builds (but does not start) a shard. The scenario's workload
// is forcibly disabled; queries come only from clients.
func NewShard(cfg ShardConfig) (*Shard, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == "" {
		return nil, errors.New("serve: shard needs an ID")
	}
	cfg.Scenario.DisableWorkload = true
	chaos, err := expandChaos(cfg.Chaos)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %q: %w", cfg.ID, err)
	}
	runner, err := scenario.Build(cfg.Scenario)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %q: %w", cfg.ID, err)
	}
	runner.Start()
	sh := &Shard{
		cfg:    cfg,
		admit:  make(chan *pendingQuery, cfg.QueueDepth),
		done:   make(chan struct{}),
		runner: runner,
		chaos:  chaos,
	}
	if reg := cfg.Telemetry; reg != nil {
		sh.tel = shardTelemetry{
			admitted: reg.Counter("dirq_serve_queries_admitted_total", "Queries admitted into the simulation."),
			served:   reg.Counter("dirq_serve_queries_served_total", "Queries answered after their settle window."),
			failed:   reg.Counter("dirq_serve_query_failures_total", "Query submissions that returned an error."),
			shed:     reg.Counter("dirq_serve_queries_shed_total", "Queries shed with ErrOverloaded because the admission queue was full."),
			chaos:    reg.Counter("dirq_serve_chaos_events_total", "Chaos script events applied while serving."),
			latency: reg.Histogram("dirq_serve_query_latency_seconds",
				"Wall-clock submit-to-answer query latency in seconds.", telemetry.LatencyBuckets()),
			queueDepth: reg.Gauge("dirq_serve_admission_queue_depth", "Queries waiting in the bounded admission queue."),
			inflight:   reg.Gauge("dirq_serve_inflight_queries", "Admitted queries inside their settle window."),
		}
	}
	return sh, nil
}

// expandChaos validates and flattens a chaos timeline: runner ops only
// (the serving clients are the workload), ordered, cascades expanded.
func expandChaos(events []script.Event) ([]script.Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	for _, e := range events {
		if !e.RunnerOp() {
			return nil, fmt.Errorf("chaos op %q is a workload op; clients drive the workload of a serving shard", e.Op)
		}
	}
	s := &script.Script{Events: events}
	return s.Expand()
}

// claim marks the shard as driven, reporting whether the caller won it.
func (s *Shard) claim() bool { return s.driven.CompareAndSwap(false, true) }

// Serve claims the shard for live serving and runs its scheduler loop
// until ctx is canceled. It returns an error if the shard has already
// been driven (served or replayed).
func (s *Shard) Serve(ctx context.Context) error {
	if !s.claim() {
		return errors.New("serve: shard already driven")
	}
	s.run(ctx)
	return nil
}

// ID returns the shard's name.
func (s *Shard) ID() string { return s.cfg.ID }

// Config returns the shard's effective (defaulted) configuration.
func (s *Shard) Config() ShardConfig { return s.cfg }

// ChaosEvents returns the length of the expanded chaos timeline (cascades
// flattened into individual kills) — the scheduled-event count that
// ChaosApplied/ChaosPending in Stats refer to.
func (s *Shard) ChaosEvents() int { return len(s.chaos) }

// QueriesShed reports how many queries this shard refused with
// ErrOverloaded since it was built.
func (s *Shard) QueriesShed() int64 { return s.shed.Load() }

// Submit queues one query and blocks until it is answered, the context
// is canceled, or the shard shuts down. If the admission queue is full
// the query is shed immediately with ErrOverloaded instead of blocking.
func (s *Shard) Submit(ctx context.Context, req Request) (*Response, error) {
	var start int64
	if s.cfg.Clock != nil {
		start = s.cfg.Clock()
	}
	resp, err := s.submit(ctx, req)
	if s.cfg.Clock != nil {
		s.tel.latency.Observe(float64(s.cfg.Clock()-start) / 1e9)
	}
	if err != nil {
		s.tel.failed.Inc()
	}
	return resp, err
}

func (s *Shard) submit(ctx context.Context, req Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pq := &pendingQuery{req: req, out: make(chan outcome, 1)}
	// Non-blocking admission: a full queue sheds the query right here.
	// Shutdown and cancellation are checked first so they win over both
	// admission and shedding when several are ready at once.
	select {
	case <-s.done:
		return nil, ErrShuttingDown
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	select {
	case s.admit <- pq:
		s.tel.queueDepth.Set(int64(len(s.admit)))
	default:
		s.shed.Add(1)
		s.tel.shed.Inc()
		return nil, ErrOverloaded
	}
	select {
	case o := <-pq.out:
		return o.resp, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		// The loop resolves or fails every queued query before closing
		// done; prefer a delivered outcome over the shutdown error.
		select {
		case o := <-pq.out:
			return o.resp, o.err
		default:
			return nil, ErrShuttingDown
		}
	}
}

// run is the shard scheduler: drain admissions, inject at the current
// epoch, advance the simulation (stopping at answer deadlines), resolve
// due queries, idle briefly when nothing is pending. It exits when ctx
// is canceled, failing whatever is still queued or in flight.
func (s *Shard) run(ctx context.Context) {
	defer close(s.done)
	var pending []*inflight
	var carry []*pendingQuery
	for {
		// Shutdown check first so cancellation wins over new work.
		select {
		case <-ctx.Done():
			s.fail(pending, carry)
			return
		default:
		}

		// Drain queued queries in arrival order, at most QueueDepth per
		// pass, so clients that keep submitting while the drain runs
		// cannot hold the scheduler in it.
		batch := carry
		carry = nil
	drain:
		for len(batch) < s.cfg.QueueDepth {
			select {
			case pq := <-s.admit:
				batch = append(batch, pq)
			default:
				break drain
			}
		}

		s.tel.queueDepth.Set(int64(len(s.admit)))
		s.mu.Lock()
		// Admit the batch at the current epoch boundary.
		for _, pq := range batch {
			f, err := s.injectLocked(pq.req)
			if err != nil {
				pq.out <- outcome{err: err}
				continue
			}
			f.pq = pq
			pending = append(pending, f)
		}

		// Advance: at most StepEpochs, but never past the earliest
		// answer deadline (answers must be read at exactly that epoch) or
		// the next chaos event (which must fire at exactly its epoch).
		now := s.runner.Epoch()
		target := now + s.cfg.StepEpochs
		for _, f := range pending {
			if f.deadline < target {
				target = f.deadline
			}
		}
		if s.nextChaos < len(s.chaos) && s.chaos[s.nextChaos].At < target {
			target = s.chaos[s.nextChaos].At
		}
		if target > now {
			s.runner.Step(target - now)
		}
		now = s.runner.Epoch()

		// Resolve everything due. If the horizon stopped the clock short
		// of a deadline, answer with what has been delivered so far
		// rather than hanging forever.
		horizon := s.runner.Done()
		kept := pending[:0]
		for _, f := range pending {
			if f.deadline <= now || horizon {
				f.pq.out <- outcome{resp: s.resolveLocked(f)}
			} else {
				kept = append(kept, f)
			}
		}
		pending = kept
		s.tel.inflight.Set(int64(len(pending)))
		s.applyChaosLocked(now)
		s.mu.Unlock()

		// Idle pacing: with nothing in flight, wait for a query or one
		// tick; with work pending, loop immediately.
		if len(pending) == 0 {
			select {
			case <-ctx.Done():
				s.fail(pending, nil)
				return
			case pq := <-s.admit:
				carry = append(carry, pq)
			case <-time.After(s.cfg.Tick):
			}
		}
	}
}

// fail answers every outstanding and queued query with ErrShuttingDown.
func (s *Shard) fail(pending []*inflight, carry []*pendingQuery) {
	for _, f := range pending {
		f.pq.out <- outcome{err: ErrShuttingDown}
	}
	for _, pq := range carry {
		pq.out <- outcome{err: ErrShuttingDown}
	}
	for {
		select {
		case pq := <-s.admit:
			pq.out <- outcome{err: ErrShuttingDown}
		default:
			return
		}
	}
}

// injectLocked admits one request at the current epoch: ground truth is
// resolved against the live dataset, the query is disseminated, and the
// admission is logged. Callers hold mu.
func (s *Shard) injectLocked(req Request) (*inflight, error) {
	if s.runner.Done() {
		return nil, ErrHorizonReached
	}
	epoch := s.runner.Epoch()
	q := query.Query{ID: s.nextID, Type: req.Type, Lo: req.Lo, Hi: req.Hi}
	s.nextID++
	truth := s.runner.Resolve(q)
	rec, floodEq := s.runner.Inject(q, truth)
	s.admitted = append(s.admitted, AdmittedQuery{
		Epoch: epoch, Type: req.Type, Lo: req.Lo, Hi: req.Hi,
	})
	s.tel.admitted.Inc()
	deadline := epoch + s.cfg.SettleEpochs
	if deadline > s.cfg.Scenario.Epochs {
		deadline = s.cfg.Scenario.Epochs
	}
	return &inflight{
		q: q, rec: rec, floodEq: floodEq, admitted: epoch, deadline: deadline,
	}, nil
}

// applyChaosLocked fires every chaos event due at or before the current
// epoch (the scheduler clamps steps to event epochs, so in practice
// "exactly at"), resolving auto-picked parameters and recording applied
// events in the admission log so Replay reproduces them. Events that
// cannot apply (e.g. a kill with only the root left) are consumed
// silently — skipping changes no state, so replay stays exact without
// them. Callers hold mu.
func (s *Shard) applyChaosLocked(now int64) {
	for s.nextChaos < len(s.chaos) && s.chaos[s.nextChaos].At <= now {
		ev := s.chaos[s.nextChaos]
		s.nextChaos++
		resolved, ok, _ := script.Apply(s.runner, ev)
		if !ok {
			continue
		}
		e := resolved
		s.admitted = append(s.admitted, AdmittedQuery{Epoch: now, Event: &e})
		s.chaosApplied++
		s.tel.chaos.Inc()
	}
}

// costLocked reads the shard's cumulative cost counters. Callers hold mu.
func (s *Shard) costLocked() (queryTotal, updateTotal, floodBaseline int64, fraction float64) {
	queryTotal = s.runner.Meter.ByClass(radio.ClassQuery).Total()
	if s.cfg.Scenario.DisseminateByFlooding {
		queryTotal = s.runner.Meter.ByClass(radio.ClassFlood).Total()
	}
	updateTotal = s.runner.Meter.ByClass(radio.ClassUpdate).Total()
	floodBaseline = s.runner.FloodBaseline()
	if floodBaseline > 0 {
		fraction = float64(queryTotal+updateTotal) / float64(floodBaseline)
	}
	return queryTotal, updateTotal, floodBaseline, fraction
}

// resolveLocked builds the response for one settled query and folds it
// into the running accuracy aggregates. Callers hold mu; the simulation
// clock is at (or, at the horizon, before) the query's deadline.
func (s *Shard) resolveLocked(f *inflight) *Response {
	n := s.runner.Graph.Len()
	acc, matched, sources := evalRecord(f.rec, n)
	s.served++
	s.tel.served.Inc()
	s.aggShouldPct += metrics.Pct(acc.Should, n)
	s.aggReceivedPct += metrics.Pct(acc.Received, n)
	s.aggOvershootPct += acc.OvershootPct
	qc, uc, fb, frac := s.costLocked()
	cost := Cost{
		FloodEquivalent:    f.floodEq,
		QueryTotal:         qc,
		UpdateTotal:        uc,
		FloodBaseline:      fb,
		FractionOfFlooding: frac,
	}
	return &Response{
		Shard:         s.cfg.ID,
		QueryID:       f.q.ID,
		Type:          f.q.Type.String(),
		Lo:            f.q.Lo,
		Hi:            f.q.Hi,
		AdmittedEpoch: f.admitted,
		AnsweredEpoch: s.runner.Epoch(),
		Matched:       matched,
		Sources:       sources,
		Accuracy:      acc,
		Cost:          cost,
	}
}

// AdmittedLog returns a copy of the admission log: the complete client-
// side determinant of the shard's evolution, replayable with Replay.
func (s *Shard) AdmittedLog() []AdmittedQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AdmittedQuery(nil), s.admitted...)
}

// Stats snapshots the shard's live counters. O(1) — cumulative costs
// come from the radio meter and accuracy means from aggregates folded
// in at answer time, so a /stats scrape never stalls serving however
// many queries the shard has absorbed.
func (s *Shard) Stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	qc, uc, fb, frac := s.costLocked()
	st := ShardStats{
		ID:              s.cfg.ID,
		Epoch:           s.runner.Epoch(),
		Running:         s.Running(),
		Done:            s.runner.Done(),
		Nodes:           s.runner.Graph.Len(),
		TreeDepth:       s.runner.Tree.MaxDepth(),
		Seed:            s.cfg.Scenario.Seed,
		Mode:            s.cfg.Scenario.Mode.String(),
		QueriesServed:   s.served,
		QueriesInjected: s.runner.QueriesInjected(),
		QueriesShed:     s.shed.Load(),
		QueryCost:       qc,
		UpdateCost:      uc,
		EstimateCost:    s.runner.Meter.ByClass(radio.ClassEstimate).Total(),
		FloodBaseline:   fb,
		CostFraction:    frac,
	}
	if s.served > 0 {
		st.MeanOvershootPct = s.aggOvershootPct / float64(s.served)
		st.PctShould = s.aggShouldPct / float64(s.served)
		st.PctReceived = s.aggReceivedPct / float64(s.served)
	}
	if s.runner.Trace != nil {
		st.TraceEvents = s.runner.Trace.Total()
	}
	st.ChaosApplied = s.chaosApplied
	st.ChaosPending = len(s.chaos) - s.nextChaos
	return st
}

// Running reports whether the shard loop is serving.
func (s *Shard) Running() bool {
	select {
	case <-s.done:
		return false
	default:
		return s.driven.Load()
	}
}

// Replay re-drives a fresh (never-started) shard through a recorded
// admission log, single-threaded, and returns the responses to the log's
// query entries in admitted order (chaos-event entries are re-applied in
// place and produce no response). Determinism makes these identical to
// the responses the live shard produced for the same seed and log.
func (s *Shard) Replay(log []AdmittedQuery) ([]*Response, error) {
	if !s.claim() {
		return nil, errors.New("serve: Replay on a shard that already served")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The log supersedes the shard's own chaos timeline: events replay
	// from their recorded entries, so none of the configured ones are
	// pending (otherwise Stats would double-count the timeline).
	s.nextChaos = len(s.chaos)
	out := make([]*Response, 0, len(log))
	responseAt := make(map[*inflight]int)
	var pending []*inflight
	i := 0
	for i < len(log) || len(pending) > 0 {
		// Next event epoch: the earliest of the next admission and the
		// earliest outstanding deadline.
		next := int64(-1)
		if i < len(log) {
			next = log[i].Epoch
		}
		for _, f := range pending {
			if next < 0 || f.deadline < next {
				next = f.deadline
			}
		}
		if now := s.runner.Epoch(); next > now {
			if s.runner.Step(next-now) == 0 {
				// Horizon: resolve everything with what was delivered.
				next = s.runner.Epoch()
			}
		}
		now := s.runner.Epoch()
		horizon := s.runner.Done()

		// Resolve due queries BEFORE this epoch's admissions — the live
		// loop reads answers at a pass's end, ahead of the next pass's
		// injections at the same epoch.
		kept := pending[:0]
		for _, f := range pending {
			if f.deadline <= now || horizon {
				out[responseAt[f]] = s.resolveLocked(f)
			} else {
				kept = append(kept, f)
			}
		}
		pending = kept

		// Process every log entry at this epoch, in order: queries are
		// re-admitted, chaos events re-applied (their parameters were
		// resolved at recording time, so application is exact).
		for i < len(log) && log[i].Epoch == now {
			e := log[i]
			if e.Event != nil {
				if _, ok, note := script.Apply(s.runner, *e.Event); !ok {
					return nil, fmt.Errorf("serve: replay entry %d: chaos event %s not applicable: %s",
						i, e.Event, note)
				}
				s.admitted = append(s.admitted, AdmittedQuery{Epoch: now, Event: e.Event})
				s.chaosApplied++
				s.tel.chaos.Inc()
				i++
				continue
			}
			f, err := s.injectLocked(Request{Type: e.Type, Lo: e.Lo, Hi: e.Hi})
			if err != nil {
				return nil, fmt.Errorf("serve: replay entry %d: %w", i, err)
			}
			responseAt[f] = len(out)
			out = append(out, nil)
			pending = append(pending, f)
			i++
		}
		if i < len(log) && log[i].Epoch < now {
			return nil, fmt.Errorf("serve: replay log not epoch-ordered at entry %d", i)
		}
		if i < len(log) && horizon && log[i].Epoch > now {
			// The clock can no longer reach this entry's epoch; erroring
			// beats spinning (query entries would hit ErrHorizonReached,
			// but event entries have no admission path to catch this).
			return nil, fmt.Errorf("serve: replay entry %d at epoch %d is past the shard horizon %d",
				i, log[i].Epoch, now)
		}
	}
	return out, nil
}
