package script

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/sensordata"
)

// Op names one kind of scheduled event.
type Op string

// The event vocabulary.
const (
	// OpKill powers one node off (Node, or an auto-picked internal node
	// when Node <= 0). The MAC detects the death and DirQ repairs the tree.
	OpKill Op = "kill"
	// OpCascade is Count kills spaced Spacing epochs apart, each target
	// auto-picked (or starting from Node when it is > 0) — a cascading or
	// batch failure. It expands to OpKill events at compile time.
	OpCascade Op = "cascade"
	// OpShift adds Delta (physical units) to the resting level of sensor
	// Type — a regime shift in the measured field.
	OpShift Op = "shift"
	// OpDrift multiplies the temporal volatility (plume drift, AR(1)
	// noise) of sensor Type by Scale; Type "" scales every type.
	OpDrift Op = "drift"
	// OpBurst sets the script workload's query injection interval to
	// Interval epochs — a load burst (or, with a larger interval, a lull).
	OpBurst Op = "burst"
	// OpCoverage retargets the workload's involved-node fraction to
	// Coverage — a selectivity/range change in what clients ask.
	OpCoverage Op = "coverage"
	// OpRetune retargets every live node's threshold controller to Delta
	// percent: fixed-δ controllers take it verbatim, the ATC re-caps its
	// control band.
	OpRetune Op = "retune"
)

// Event is one scheduled timeline entry. Exactly the fields its Op reads
// are meaningful; the rest stay zero (and are omitted from JSON).
type Event struct {
	// At is the epoch the event fires, in [0, horizon).
	At int64 `json:"at"`
	Op Op    `json:"op"`

	// Node targets a specific node for OpKill/OpCascade (<= 0 = auto-pick
	// the live internal node with the most children; the root never dies).
	Node int `json:"node,omitempty"`
	// Count and Spacing shape an OpCascade.
	Count   int   `json:"count,omitempty"`
	Spacing int64 `json:"spacing,omitempty"`
	// Type is the sensor type name for OpShift/OpDrift.
	Type string `json:"type,omitempty"`
	// Delta is the OpShift offset (physical units) or the OpRetune δ (%).
	Delta float64 `json:"delta,omitempty"`
	// Scale is the OpDrift volatility multiplier.
	Scale float64 `json:"scale,omitempty"`
	// Interval is the OpBurst injection interval (epochs).
	Interval int64 `json:"interval,omitempty"`
	// Coverage is the OpCoverage involvement target in (0, 1].
	Coverage float64 `json:"coverage,omitempty"`
}

// maxCascadeKills caps the kills one script's cascades may expand to, in
// total. It is above the largest network the scale ladder plans (1M
// nodes), so no real script meets it, while a hostile count cannot make
// Expand allocate without bound.
const maxCascadeKills = 1 << 20

// Validate rejects a malformed event (unknown op, missing or out-of-range
// parameters). The horizon is not known here: events scheduled at or past
// it are skipped by the driver and recorded as such, not rejected.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("script: event %q at negative epoch %d", e.Op, e.At)
	}
	switch e.Op {
	case OpKill:
		// Node <= 0 means auto-pick; nothing else to check.
	case OpCascade:
		if e.Count < 1 {
			return fmt.Errorf("script: cascade at %d: count %d < 1", e.At, e.Count)
		}
		if e.Spacing < 0 {
			return fmt.Errorf("script: cascade at %d: negative spacing %d", e.At, e.Spacing)
		}
		if e.Count > maxCascadeKills {
			return fmt.Errorf("script: cascade at %d: count %d over the %d cap", e.At, e.Count, maxCascadeKills)
		}
		if e.Spacing > 0 && int64(e.Count-1) > (math.MaxInt64-e.At)/e.Spacing {
			return fmt.Errorf("script: cascade at %d: last kill's epoch overflows int64", e.At)
		}
	case OpShift:
		if _, err := parseType(e.Type); err != nil {
			return fmt.Errorf("script: shift at %d: %w", e.At, err)
		}
		if e.Delta == 0 {
			return fmt.Errorf("script: shift at %d: zero delta", e.At)
		}
	case OpDrift:
		if e.Type != "" {
			if _, err := parseType(e.Type); err != nil {
				return fmt.Errorf("script: drift at %d: %w", e.At, err)
			}
		}
		if e.Scale <= 0 {
			return fmt.Errorf("script: drift at %d: scale %v <= 0", e.At, e.Scale)
		}
	case OpBurst:
		if e.Interval < 1 {
			return fmt.Errorf("script: burst at %d: interval %d < 1", e.At, e.Interval)
		}
	case OpCoverage:
		if e.Coverage <= 0 || e.Coverage > 1 {
			return fmt.Errorf("script: coverage at %d: target %v outside (0,1]", e.At, e.Coverage)
		}
	case OpRetune:
		if e.Delta <= 0 {
			return fmt.Errorf("script: retune at %d: delta %v <= 0", e.At, e.Delta)
		}
	default:
		return fmt.Errorf("script: unknown op %q at epoch %d", e.Op, e.At)
	}
	return nil
}

// RunnerOp reports whether the op applies to the simulation itself (kills,
// field changes, retuning) as opposed to the script's own workload
// (bursts, coverage). Only runner ops are allowed in serve chaos mode,
// where clients are the workload.
func (e Event) RunnerOp() bool {
	switch e.Op {
	case OpBurst, OpCoverage:
		return false
	default:
		return true
	}
}

// String renders the event compactly for logs and reports.
func (e Event) String() string {
	switch e.Op {
	case OpKill:
		if e.Node > 0 {
			return fmt.Sprintf("@%d kill node %d", e.At, e.Node)
		}
		return fmt.Sprintf("@%d kill (auto)", e.At)
	case OpCascade:
		return fmt.Sprintf("@%d cascade %d kills every %d epochs", e.At, e.Count, e.Spacing)
	case OpShift:
		return fmt.Sprintf("@%d shift %s by %+g", e.At, e.Type, e.Delta)
	case OpDrift:
		t := e.Type
		if t == "" {
			t = "all types"
		}
		return fmt.Sprintf("@%d drift %s x%g", e.At, t, e.Scale)
	case OpBurst:
		return fmt.Sprintf("@%d burst: query every %d epochs", e.At, e.Interval)
	case OpCoverage:
		return fmt.Sprintf("@%d coverage -> %.0f%%", e.At, e.Coverage*100)
	case OpRetune:
		return fmt.Sprintf("@%d retune delta -> %g%%", e.At, e.Delta)
	default:
		return fmt.Sprintf("@%d %s", e.At, e.Op)
	}
}

// Workload sets the script-owned query workload. Zero fields inherit the
// scenario's QueryInterval and Coverage.
type Workload struct {
	// Interval is the epochs between query injections (OpBurst changes it
	// mid-run).
	Interval int64 `json:"interval,omitempty"`
	// Coverage is the target involved-node fraction (OpCoverage changes
	// it mid-run).
	Coverage float64 `json:"coverage,omitempty"`
}

// Script is one declarative scenario-dynamics timeline.
type Script struct {
	// Name labels reports and artifacts.
	Name string `json:"name,omitempty"`
	// Workload configures the script-owned query workload.
	Workload Workload `json:"workload,omitzero"`
	// Events is the timeline, ordered by At (ties fire in slice order).
	Events []Event `json:"events"`
}

// Validate checks every event and the timeline ordering.
func (s *Script) Validate() error {
	if s.Workload.Interval < 0 {
		return fmt.Errorf("script: negative workload interval %d", s.Workload.Interval)
	}
	if s.Workload.Coverage < 0 || s.Workload.Coverage > 1 {
		return fmt.Errorf("script: workload coverage %v outside [0,1]", s.Workload.Coverage)
	}
	prev := int64(0)
	kills := 0
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return err
		}
		if e.At < prev {
			return fmt.Errorf("script: events not ordered by epoch at index %d (%d after %d)", i, e.At, prev)
		}
		prev = e.At
		if e.Op == OpCascade {
			// e.Validate capped Count, so the sum cannot overflow.
			if kills += e.Count; kills > maxCascadeKills {
				return fmt.Errorf("script: cascades at index %d expand to over %d kills", i, maxCascadeKills)
			}
		}
	}
	return nil
}

// Expand validates the script and returns the flattened timeline:
// cascades become individual kills, and the result is stably re-sorted by
// epoch (so a cascade interleaves deterministically with later events).
func (s *Script) Expand() ([]Event, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := make([]Event, 0, len(s.Events))
	for _, e := range s.Events {
		if e.Op != OpCascade {
			out = append(out, e)
			continue
		}
		for k := 0; k < e.Count; k++ {
			kill := Event{At: e.At + int64(k)*e.Spacing, Op: OpKill}
			if k == 0 {
				kill.Node = e.Node // an explicit first victim, if any
			}
			out = append(out, kill)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// Parse decodes and validates a JSON script. Unknown fields and anything
// but whitespace after the script object are rejected, so typos and
// concatenated or half-edited scenario files fail loudly.
func Parse(data []byte) (*Script, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Script
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("script: bad JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the script object")
		}
		return nil, fmt.Errorf("script: bad JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a JSON script file.
func Load(path string) (*Script, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseType resolves a sensor-type name.
func parseType(name string) (sensordata.Type, error) {
	for _, t := range sensordata.AllTypes() {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown sensor type %q", name)
}
