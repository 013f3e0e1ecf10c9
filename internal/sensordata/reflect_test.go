package sensordata

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// returnsWithin runs f on its own goroutine and fails the test if f has
// not returned by the deadline, so a hang is reported instead of stalling
// the whole test binary.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestReflectFarOutside folds values many periods outside the area, where
// one bounce per loop pass would take O(|v|/limit) passes.
func TestReflectFarOutside(t *testing.T) {
	for _, limit := range []float64{100, 73.3} {
		for _, v := range []float64{1e16, -1e16, 1e300, -1e300} {
			var r float64
			returnsWithin(t, 5*time.Second, "reflect", func() { r = reflect(v, limit) })
			if !(r >= 0 && r <= limit) {
				t.Fatalf("reflect(%v, %v) = %v, want a value in [0, %v]", v, limit, r, limit)
			}
		}
		for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			returnsWithin(t, 5*time.Second, "reflect", func() { reflect(v, limit) })
		}
	}
}

// TestStepSurvivesHugeDrift steps a generator whose drift a script scaled
// by 1e16 (script validation accepts such a factor).
func TestStepSurvivesHugeDrift(t *testing.T) {
	g := NewGenerator(testPositions(50, sim.NewRNG(3)), sim.NewRNG(4).Stream("data"))
	g.ScaleDynamics(Temperature, 1e16)
	returnsWithin(t, 10*time.Second, "10 Steps after ScaleDynamics(Temperature, 1e16)", func() {
		for range 10 {
			g.Step()
		}
	})
}
