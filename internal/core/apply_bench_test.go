package core_test

import (
	"testing"

	"repro/internal/scenario"
)

// BenchmarkApply times one gated epoch's activity sweep and worklist apply
// on ScaleDefault(25000) in fixed-δ mode, after a 100-epoch warm-up. The
// field step and the MAC frame that carries the previous epoch's update
// messages run outside the timer.
func BenchmarkApply(b *testing.B) {
	cfg := scenario.ScaleDefault(25000)
	cfg.Mode = scenario.FixedDelta
	r, err := scenario.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r.Start()
	r.Step(100)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		r.MAC.RunFrame()
		r.Gen.Step()
		b.StartTimer()
		r.Proto.SweepApply()
	}
}
