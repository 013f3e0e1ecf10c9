package scenario

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// stepTestConfig is a reduced-scale config that still exercises warm-up,
// several query injections, bucket sampling, and hourly estimates.
func stepTestConfig(mode ThresholdMode) Config {
	cfg := Default()
	cfg.NumNodes = 25
	cfg.Epochs = 600
	cfg.EpochsPerHour = 100
	cfg.QueryInterval = 20
	cfg.Mode = mode
	return cfg
}

func gobBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// TestStepEquivalence checks the tentpole refactor invariant: a run driven
// incrementally through Start/Step — in chunks of any size, even or uneven —
// produces a byte-identical Result to the monolithic Run, for both
// threshold modes.
func TestStepEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		mode  ThresholdMode
		steps []int64 // step sizes, cycled until the horizon
	}{
		{"fixed/epoch-at-a-time", FixedDelta, []int64{1}},
		{"fixed/uneven-chunks", FixedDelta, []int64{7, 1, 93, 13}},
		{"fixed/one-big-step", FixedDelta, []int64{600}},
		{"fixed/overshooting-step", FixedDelta, []int64{100000}},
		{"atc/epoch-at-a-time", ATC, []int64{1}},
		{"atc/uneven-chunks", ATC, []int64{17, 250, 3}},
		{"atc/bucket-sized", ATC, []int64{100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stepTestConfig(tc.mode)

			mono, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			r, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			for i := 0; !r.Done(); i++ {
				n := tc.steps[i%len(tc.steps)]
				if adv := r.Step(n); adv == 0 && !r.Done() {
					t.Fatalf("Step(%d) advanced 0 epochs before the horizon (epoch %d)", n, r.Epoch())
				}
			}
			if got, want := r.Epoch(), cfg.Epochs; got != want {
				t.Fatalf("final epoch %d, want %d", got, want)
			}
			if r.Step(10) != 0 {
				t.Fatal("Step advanced past the horizon")
			}
			stepped := r.Snapshot()

			if !reflect.DeepEqual(mono, stepped) {
				t.Fatalf("stepped Result differs from monolithic Run\nmono:    %+v\nstepped: %+v",
					mono.Summary, stepped.Summary)
			}
			if !bytes.Equal(gobBytes(t, mono), gobBytes(t, stepped)) {
				t.Fatal("stepped Result not byte-identical to monolithic Run")
			}
		})
	}
}

// TestSnapshotMidRunIsNonDestructive checks that Snapshot can be taken
// mid-run without perturbing the remainder of the simulation.
func TestSnapshotMidRunIsNonDestructive(t *testing.T) {
	cfg := stepTestConfig(FixedDelta)

	mono, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	for !r.Done() {
		r.Step(150)
		r.Snapshot() // discarded: must have no effect on the run
	}
	if !reflect.DeepEqual(mono, r.Snapshot()) {
		t.Fatal("mid-run Snapshots perturbed the final Result")
	}
}

// TestDisableWorkload checks that a workload-disabled run injects nothing
// by itself and that external Inject calls are accounted exactly like
// workload queries.
func TestDisableWorkload(t *testing.T) {
	cfg := stepTestConfig(FixedDelta)
	cfg.DisableWorkload = true

	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Step(100)
	if n := r.QueriesInjected(); n != 0 {
		t.Fatalf("workload disabled but %d queries injected", n)
	}

	q, truth := r.NextWorkloadQuery()
	rec, floodCost := r.Inject(q, truth)
	if rec == nil {
		t.Fatal("Inject returned nil record")
	}
	if floodCost <= 0 {
		t.Fatalf("flood-equivalent cost %d, want > 0", floodCost)
	}
	if n := r.QueriesInjected(); n != 1 {
		t.Fatalf("QueriesInjected = %d, want 1", n)
	}
	if r.FloodBaseline() != floodCost {
		t.Fatalf("FloodBaseline %d != query flood cost %d", r.FloodBaseline(), floodCost)
	}
	r.Step(50)
	res := r.Snapshot()
	if res.QueriesInjected != 1 || len(res.Accuracies) != 1 {
		t.Fatalf("Snapshot saw %d queries / %d accuracies, want 1/1",
			res.QueriesInjected, len(res.Accuracies))
	}
	if rec.Received.Len() == 0 && truth.Should.Len() > 0 {
		t.Error("externally injected query reached no nodes")
	}
}
