package scenario_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/script"
)

// burstRun runs the 25-node test network (seed 7) for epochs under a
// script that injects a query every busy epochs until quietFrom, and every
// quiet epochs from then on: the "extrinsic" query-rate dynamism of §1.
// cfg.QueryInterval is set to the quiet rate, the run's nominal load.
func burstRun(t *testing.T, mode scenario.ThresholdMode, epochs, quietFrom, busy, quiet int64) *script.Result {
	t.Helper()
	cfg := scenario.Default()
	cfg.NumNodes = 25
	cfg.Seed = 7
	cfg.Mode = mode
	cfg.Epochs = epochs
	cfg.QueryInterval = quiet
	res, err := script.Run(cfg, &script.Script{Events: []script.Event{
		{At: 0, Op: script.OpBurst, Interval: busy},
		{At: quietFrom, Op: script.OpBurst, Interval: quiet},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimeVaryingLoadTrackedByPredictor(t *testing.T) {
	// Hour = 100 epochs. Until epoch 1200: a query every 5 epochs
	// (20/hour). Then every 50 epochs (2/hour).
	res := burstRun(t, scenario.FixedDelta, 2400, 1200, 5, 50)
	if len(res.EHrSeries) < 20 {
		t.Fatalf("only %d estimates emitted", len(res.EHrSeries))
	}
	// Forecast during the busy phase must exceed the late quiet phase.
	busy := res.EHrSeries[10] // after 1000 epochs of 20/hour
	quiet := res.EHrSeries[len(res.EHrSeries)-1]
	if busy <= quiet {
		t.Fatalf("EHr did not track load change: busy=%d quiet=%d (series %v)",
			busy, quiet, res.EHrSeries)
	}
	if busy < 12 {
		t.Fatalf("busy-phase forecast %d, want near 20", busy)
	}
	if quiet > 8 {
		t.Fatalf("quiet-phase forecast %d, want near 2", quiet)
	}
}

func TestTimeVaryingLoadATCDeltaReacts(t *testing.T) {
	// With ATC, higher query load means a bigger update budget and thus a
	// smaller delta during the busy phase.
	res := burstRun(t, scenario.ATC, 3000, 1500, 5, 100)
	buckets := res.DeltaPctPerBucket
	if len(buckets) < 28 {
		t.Fatalf("only %d delta buckets", len(buckets))
	}
	busyDelta := buckets[13]              // end of busy phase
	quietDelta := buckets[len(buckets)-1] // settled quiet phase
	if busyDelta >= quietDelta {
		t.Fatalf("delta did not widen when load dropped: busy=%v quiet=%v", busyDelta, quietDelta)
	}
}
