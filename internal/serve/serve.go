package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/script"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

// Request is one client range query: "which nodes currently read a value
// of Type in [Lo, Hi]?". Shard optionally pins the query to a named
// shard; empty means the manager picks one round-robin.
type Request struct {
	Shard string          `json:"shard,omitempty"`
	Type  sensordata.Type `json:"-"`
	Lo    float64         `json:"lo"`
	Hi    float64         `json:"hi"`
}

// Validate rejects malformed requests.
func (r Request) Validate() error {
	if r.Type < 0 || r.Type >= sensordata.NumTypes {
		return fmt.Errorf("serve: unknown sensor type %d", int(r.Type))
	}
	if r.Lo > r.Hi {
		return fmt.Errorf("serve: empty range [%v, %v]", r.Lo, r.Hi)
	}
	return nil
}

// ParseSensorType resolves a sensor-type name ("temperature", "humidity",
// "light", "soil-moisture") to its Type.
func ParseSensorType(s string) (sensordata.Type, error) {
	for _, t := range sensordata.AllTypes() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown sensor type %q", s)
}

// Accuracy is the per-query accuracy accounting of one served query,
// against the ground truth captured at admission (§7.1 quantities).
type Accuracy struct {
	// Should counts nodes that should have been reached: ground-truth
	// sources plus the forwarding nodes on their root paths.
	Should int `json:"should"`
	// Received counts nodes the query actually reached.
	Received int `json:"received"`
	// Sources counts the ground-truth source nodes at admission time.
	Sources int `json:"sources"`
	// Wrong counts nodes reached that should not have been.
	Wrong int `json:"wrong"`
	// Missed counts nodes that should have been reached but were not.
	Missed int `json:"missed"`
	// OvershootPct is Wrong as a percentage of the non-root population.
	OvershootPct float64 `json:"overshoot_pct"`
}

// Cost relates the served query's traffic to the flooding baseline.
type Cost struct {
	// FloodEquivalent is what flooding this one query would have cost.
	FloodEquivalent int64 `json:"flood_equivalent"`
	// QueryTotal / UpdateTotal are the shard's cumulative directed
	// dissemination and range-update costs at answer time.
	QueryTotal  int64 `json:"query_total"`
	UpdateTotal int64 `json:"update_total"`
	// FloodBaseline is the shard's cumulative flooding-equivalent cost.
	FloodBaseline int64 `json:"flood_baseline"`
	// FractionOfFlooding is (QueryTotal+UpdateTotal)/FloodBaseline — the
	// paper's headline metric, live (45–55 % under ATC).
	FractionOfFlooding float64 `json:"fraction_of_flooding"`
}

// Response answers one Request.
type Response struct {
	Shard         string  `json:"shard"`
	QueryID       int64   `json:"query_id"`
	Type          string  `json:"type"`
	Lo            float64 `json:"lo"`
	Hi            float64 `json:"hi"`
	AdmittedEpoch int64   `json:"admitted_epoch"`
	AnsweredEpoch int64   `json:"answered_epoch"`
	// Matched lists the nodes the query was delivered to, ascending.
	Matched []topology.NodeID `json:"matched"`
	// Sources lists the matched nodes whose own reading satisfied the
	// range when the query reached them, ascending.
	Sources  []topology.NodeID `json:"sources"`
	Accuracy Accuracy          `json:"accuracy"`
	Cost     Cost              `json:"cost"`
}

// AdmittedQuery is one entry of a shard's admission log: everything that
// determines the simulation's evolution from the client side. Entries are
// either client queries (Event nil) or chaos-mode script events applied
// mid-serve (Event set, with auto-picked parameters resolved, and the
// query fields zero) — recording both, in application order, keeps
// Shard.Replay exact under scripted dynamics.
type AdmittedQuery struct {
	Epoch int64           `json:"epoch"`
	Type  sensordata.Type `json:"type"`
	Lo    float64         `json:"lo"`
	Hi    float64         `json:"hi"`
	Event *script.Event   `json:"event,omitempty"`
}

// ShardStats is one shard's live counters for /stats.
type ShardStats struct {
	ID              string `json:"id"`
	Epoch           int64  `json:"epoch"`
	Running         bool   `json:"running"`
	Done            bool   `json:"done"`
	Nodes           int    `json:"nodes"`
	TreeDepth       int    `json:"tree_depth"`
	Seed            uint64 `json:"seed"`
	Mode            string `json:"mode"`
	QueriesServed   int64  `json:"queries_served"`
	QueriesInjected int    `json:"queries_injected"`
	// QueriesShed counts submissions refused with ErrOverloaded because
	// the bounded admission queue was full. Shed queries never enter the
	// admission log, so they do not affect Replay.
	QueriesShed   int64   `json:"queries_shed"`
	QueryCost     int64   `json:"query_cost"`
	UpdateCost    int64   `json:"update_cost"`
	EstimateCost  int64   `json:"estimate_cost"`
	FloodBaseline int64   `json:"flood_baseline"`
	CostFraction  float64 `json:"cost_fraction"`
	// MeanOvershootPct / PctShould / PctReceived summarize the queries
	// answered so far, each evaluated at its answer epoch (Fig. 5
	// quantities, live).
	MeanOvershootPct float64 `json:"mean_overshoot_pct"`
	PctShould        float64 `json:"pct_should"`
	PctReceived      float64 `json:"pct_received"`
	// TraceEvents counts protocol events ever recorded, when the shard's
	// scenario enables tracing.
	TraceEvents uint64 `json:"trace_events,omitempty"`
	// ChaosApplied / ChaosPending count the chaos-mode script events
	// already applied and still scheduled, when the shard runs one.
	ChaosApplied int `json:"chaos_applied,omitempty"`
	ChaosPending int `json:"chaos_pending,omitempty"`
}

// accuracyOf converts the metrics accounting to the wire form (dropping
// the possibly-infinite relative overshoot, which JSON cannot carry).
func accuracyOf(a metrics.Accuracy) Accuracy {
	return Accuracy{
		Should:       a.NumShould,
		Received:     a.NumReceived,
		Sources:      a.NumSources,
		Wrong:        a.NumWrong,
		Missed:       a.NumMissed,
		OvershootPct: a.OvershootPct,
	}
}

// evalRecord builds the accuracy and matched sets of one query record.
func evalRecord(rec *core.QueryRecord, n int) (acc Accuracy, matched, sources []topology.NodeID) {
	return accuracyOf(metrics.Eval(rec, n)), rec.Received.IDs(), rec.Sources.IDs()
}
