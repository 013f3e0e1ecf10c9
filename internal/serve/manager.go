package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ErrNoSuchShard is returned for requests naming an unknown shard.
var ErrNoSuchShard = errors.New("serve: no such shard")

// Manager hosts a set of shards and routes queries to them: a named
// shard when the request pins one, round-robin otherwise.
type Manager struct {
	shards []*Shard
	byID   map[string]*Shard
	reg    *telemetry.Registry

	rr      atomic.Uint64
	started atomic.Bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewManager builds all shards. IDs must be unique. Every shard whose
// config carries no Telemetry of its own is instrumented on the manager's
// registry (exposed via Telemetry) with a {shard="<ID>"} label — both its
// serving instruments and, unless the scenario already has one, its
// hosted simulation.
func NewManager(cfgs []ShardConfig) (*Manager, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("serve: manager needs at least one shard")
	}
	m := &Manager{byID: map[string]*Shard{}, reg: telemetry.NewRegistry()}
	for _, cfg := range cfgs {
		if _, dup := m.byID[cfg.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate shard ID %q", cfg.ID)
		}
		if cfg.Telemetry == nil {
			scope := telemetry.Scoped(m.reg, telemetry.Label{Key: "shard", Value: cfg.ID})
			cfg.Telemetry = scope
			if cfg.Scenario.Telemetry == nil {
				cfg.Scenario.Telemetry = scope
			}
		}
		sh, err := NewShard(cfg)
		if err != nil {
			return nil, err
		}
		m.shards = append(m.shards, sh)
		m.byID[cfg.ID] = sh
	}
	return m, nil
}

// Telemetry exposes the manager's metrics registry (the backing store of
// /metrics and /metrics.json).
func (m *Manager) Telemetry() *telemetry.Registry { return m.reg }

// Start launches every shard's scheduler loop. The shards serve until
// ctx is canceled or Stop is called. Every shard is claimed before
// Start returns, so a successful Start means every shard reports
// Running and GET /healthz answers "ok" immediately.
func (m *Manager) Start(ctx context.Context) error {
	if !m.started.CompareAndSwap(false, true) {
		return errors.New("serve: manager already started")
	}
	for _, sh := range m.shards {
		if !sh.claim() {
			return fmt.Errorf("serve: shard %q already driven", sh.ID())
		}
	}
	ctx, m.cancel = context.WithCancel(ctx)
	for _, sh := range m.shards {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			sh.run(ctx)
		}()
	}
	return nil
}

// Stop cancels every shard loop and waits for them to drain: in-flight
// and queued queries are answered with ErrShuttingDown first.
func (m *Manager) Stop() {
	if m.cancel != nil {
		m.cancel()
	}
	m.wg.Wait()
}

// Shard returns a hosted shard by ID.
func (m *Manager) Shard(id string) (*Shard, bool) {
	sh, ok := m.byID[id]
	return sh, ok
}

// Shards returns the hosted shards in configuration order.
func (m *Manager) Shards() []*Shard {
	return append([]*Shard(nil), m.shards...)
}

// Query routes one request: to the named shard if req.Shard is set,
// otherwise to the next shard in configuration order, round-robin. It blocks until the query is
// answered, ctx is canceled, or the target shard shuts down; if the
// target's admission queue is full it fails fast with ErrOverloaded.
func (m *Manager) Query(ctx context.Context, req Request) (*Response, error) {
	var sh *Shard
	if req.Shard != "" {
		var ok bool
		if sh, ok = m.byID[req.Shard]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchShard, req.Shard)
		}
	} else {
		sh = m.shards[m.rr.Add(1)%uint64(len(m.shards))]
	}
	return sh.Submit(ctx, req)
}

// Stats snapshots every shard's counters, in configuration order.
func (m *Manager) Stats() []ShardStats {
	out := make([]ShardStats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.Stats()
	}
	return out
}
