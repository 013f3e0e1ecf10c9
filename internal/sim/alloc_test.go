package sim

import (
	"runtime"
	"testing"
	"weak"
)

// TestScheduleDispatchAllocFree pins the post-overhaul allocation ceiling
// of the engine hot path: once the arena is warm, a Schedule + Step cycle
// must not allocate at all (the seed engine allocated one event per
// Schedule call).
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the arena past the working set used below.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Schedule(e.Now()+2, fn)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/dispatch cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestCancelAllocFree verifies canceling is allocation-free too.
func TestCancelAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+1, fn)
	}
	e.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		id := e.Schedule(e.Now()+1, fn)
		if !e.Cancel(id) {
			t.Fatal("cancel failed")
		}
		e.RunUntil(e.Now() + 1)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestResetKeepsCapacity checks Reset rewinds state but keeps the arena,
// so the next run's scheduling starts allocation-free.
func TestResetKeepsCapacity(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	e.Reset()

	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 || e.Stopped() {
		t.Fatalf("Reset left state: now=%d steps=%d pending=%d stopped=%v",
			e.Now(), e.Steps(), e.Pending(), e.Stopped())
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.Schedule(Time(i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("reset/reuse cycle allocates %.1f objects, want 0", allocs)
	}
}

// scheduleHeavy schedules one event at t whose closure holds the only
// pointer to a 64 KiB array, and returns a weak pointer to that array. It
// is a separate function so no stack slot of the caller keeps the array
// reachable.
func scheduleHeavy(e *Engine, t Time) (weak.Pointer[[1 << 16]byte], EventID) {
	big := new([1 << 16]byte)
	id := e.Schedule(t, func() { big[0]++ })
	return weak.Make(big), id
}

// TestRunEventReleasesClosure checks the engine drops every closure it has
// finished with — after the event runs, after Cancel removes it, and after
// Reset discards it — so the queue's backing array never pins a finished
// run's state.
func TestRunEventReleasesClosure(t *testing.T) {
	cases := []struct {
		name   string
		finish func(e *Engine, id EventID)
	}{
		{"run", func(e *Engine, _ EventID) { e.RunUntil(10) }},
		{"cancel", func(e *Engine, id EventID) {
			if !e.Cancel(id) {
				t.Fatal("Cancel returned false for a live event")
			}
		}},
		{"reset", func(e *Engine, _ EventID) { e.Reset() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			wp, id := scheduleHeavy(e, 5)
			tc.finish(e, id)
			runtime.GC()
			if wp.Value() != nil {
				t.Fatalf("engine still references the closure after %s", tc.name)
			}
			runtime.KeepAlive(e)
		})
	}
}
