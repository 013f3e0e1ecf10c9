package core_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// BenchmarkATCRun times a whole 50-node ATC run of 4000 epochs (build
// included), instrumented on a fresh telemetry registry as the runs that
// PERFORMANCE.md records were. Every ATC node takes the exact ungated
// path, so sweepApply batch-evaluates every mounted pair every epoch.
func BenchmarkATCRun(b *testing.B) {
	for range b.N {
		cfg := scenario.Default()
		cfg.Mode = scenario.ATC
		cfg.Epochs = 4000
		cfg.Telemetry = telemetry.NewRegistry()
		if _, err := scenario.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
