package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// atcRun runs the paper's 50-node scenario in ATC mode, with sweepApply's
// batched field evaluation on or off, and returns the result, the
// generator's evaluation total and every non-histogram counter.
func atcRun(tb testing.TB, epochs int64, batch bool) (*scenario.Result, uint64, map[string]float64) {
	tb.Helper()
	defer core.SetBatchEval(batch)()
	reg := telemetry.NewRegistry()
	cfg := scenario.Default()
	cfg.Mode = scenario.ATC
	cfg.Epochs = epochs
	cfg.Telemetry = reg
	r, err := scenario.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res := r.Run()
	counters := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind != telemetry.KindHistogram {
			counters[s.Name] += s.Value
		}
	}
	return res, r.Gen.Evals(), counters
}

// TestBatchedEvalMatchesUnbatched runs ATC, where every node takes the
// exact ungated path, with and without the batched evaluation: the result,
// the evaluation total and the sweep, activity and evaluation counters
// must all be identical.
func TestBatchedEvalMatchesUnbatched(t *testing.T) {
	resB, evalsB, ctrB := atcRun(t, 3000, true)
	resU, evalsU, ctrU := atcRun(t, 3000, false)
	if evalsB != evalsU {
		t.Fatalf("Evals() batched %d, unbatched %d", evalsB, evalsU)
	}
	if evalsB == 0 {
		t.Fatal("no field evaluations")
	}
	for _, name := range []string{"dirq_field_evals_total", "dirq_field_sweep_hits_total",
		"dirq_field_sweep_refutations_total", "dirq_core_active_nodes_total"} {
		if _, ok := ctrU[name]; !ok {
			t.Fatalf("counter %s not registered", name)
		}
	}
	if !reflect.DeepEqual(ctrB, ctrU) {
		t.Fatalf("counters differ:\nbatched   %v\nunbatched %v", ctrB, ctrU)
	}
	if !reflect.DeepEqual(resB, resU) {
		t.Fatal("batched and unbatched runs produced different results")
	}
}

// BenchmarkATCRun times a whole 50-node ATC run of 4000 epochs (build
// included), with sweepApply's batched field evaluation and without it.
func BenchmarkATCRun(b *testing.B) {
	for _, c := range []struct {
		name  string
		batch bool
	}{{"batch", true}, {"single", false}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				atcRun(b, 4000, c.batch)
			}
		})
	}
}
