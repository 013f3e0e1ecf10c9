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
