package sim

import (
	"testing"

	"repro/internal/telemetry"
)

// TestRunUntilAllocFree pins the engine's hot path: once tickers are
// registered, advancing the clock and calling them allocates nothing.
func TestRunUntilAllocFree(t *testing.T) {
	e := NewEngine()
	e.SetTelemetry(Telemetry{TickerRuns: telemetry.NewRegistry().Counter("ticker_runs_total", "")})
	n := 0
	for p := range 3 {
		e.AddTicker(p, func() { n++ })
	}
	e.RunUntil(10)

	allocs := testing.AllocsPerRun(1000, func() {
		e.RunUntil(e.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("RunUntil allocates %.1f objects per call, want 0", allocs)
	}
}
