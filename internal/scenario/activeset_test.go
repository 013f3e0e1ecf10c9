package scenario

import (
	"testing"

	"repro/internal/telemetry"
)

// TestQuiescentActiveSetPinned pins the activity-gated loop's work on a
// quiescent network: a wide fixed threshold (50 % of each type's span)
// keeps almost every node inside its tuple, so the worklist runs near
// empty. The active-node, sweep-hit and field-evaluation totals are exact
// for this deterministic run. No output-level oracle sees them: a sweep
// that flagged extra pairs, or evaluated nodes it could have proved quiet,
// would still produce byte-identical protocol output. Refutations are not
// pinned, because they count how much of the network the sweep examines,
// not what it decides.
func TestQuiescentActiveSetPinned(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := ScaleDefault(1000)
	cfg.Epochs = 300
	cfg.Mode = FixedDelta
	cfg.FixedPct = 50
	cfg.Telemetry = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	vals := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Kind != telemetry.KindHistogram {
			vals[s.Name] += int64(s.Value)
		}
	}
	for _, want := range []struct {
		name string
		v    int64
	}{
		{"dirq_epochs_total", 301},
		{"dirq_core_active_nodes_total", 1431},
		{"dirq_field_sweep_hits_total", 4428},
		{"dirq_field_evals_total", 13407},
	} {
		if got := vals[want.name]; got != want.v {
			t.Errorf("%s = %d, want %d", want.name, got, want.v)
		}
	}
}

// TestGridActiveSetPinned is TestQuiescentActiveSetPinned's companion on
// a field wide enough for the generator's plume-motion grid, at the
// default fixed threshold (5 % of span): ScaleDefault(4000) over 400
// epochs. With one plume-motion bound for every node (no grid, as at
// c822a65) this run made 1 208 177 field evaluations (1 192 177 after
// construction, the counter's share) and 1 145 660 sweep hits; charging
// each plume's motion only to the cells near it leaves the numbers below.
// The protocol output is the same either way, so only these pins see a
// bound that is looser than it need be.
func TestGridActiveSetPinned(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := ScaleDefault(4000)
	cfg.Epochs = 400
	cfg.Mode = FixedDelta
	cfg.Telemetry = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, s := range reg.Snapshot() {
		if s.Kind != telemetry.KindHistogram {
			vals[s.Name] += int64(s.Value)
		}
	}
	for _, want := range []struct {
		name string
		v    int64
	}{
		{"dirq_epochs_total", 401},
		{"dirq_core_active_nodes_total", 71309},
		{"dirq_field_sweep_hits_total", 83954},
		{"dirq_field_evals_total", 139362},
	} {
		if got := vals[want.name]; got != want.v {
			t.Errorf("%s = %d, want %d", want.name, got, want.v)
		}
	}
}
