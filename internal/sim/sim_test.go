package sim

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestRunUntilAdvancesClockWithoutTickers(t *testing.T) {
	e := NewEngine()
	e.RunUntil(7)
	if e.Now() != 7 {
		t.Fatalf("Now() = %d, want 7", e.Now())
	}
	e.RunUntil(3)
	if e.Now() != 7 {
		t.Fatalf("RunUntil(3) moved the clock back to %d", e.Now())
	}
}

func TestTieBreakByPriority(t *testing.T) {
	e := NewEngine()
	var got []int
	for _, p := range []int{2, 0, 1} {
		e.AddTicker(p, func() { got = append(got, p) })
	}
	e.RunUntil(0)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("priority order violated: %v", got)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 5; i++ {
		e.AddTicker(7, func() { got = append(got, i) })
	}
	e.RunUntil(1)
	if want := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("registration order not kept at equal priority: %v, want %v", got, want)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.AddTicker(0, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(3)
	if !slices.Equal(ticks, []Time{0, 1, 2, 3}) || e.Now() != 3 {
		t.Fatalf("ticks %v, Now() = %d; want 0..3 and 3", ticks, e.Now())
	}
	e.RunUntil(3)
	if len(ticks) != 4 {
		t.Fatalf("repeating RunUntil(3) reran a tick: %v", ticks)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.AddTicker(0, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(2)
	if len(ticks) != 3 {
		t.Fatalf("ran ticks %v, want 0..2", ticks)
	}
	e.RunUntil(5)
	if !slices.Equal(ticks, []Time{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("ticks %v, want 0..5", ticks)
	}
}

// A ticker added between RunUntil calls first runs at the current tick,
// which the tickers already registered do not run again.
func TestTickerAddedBetweenRuns(t *testing.T) {
	e := NewEngine()
	type run struct {
		name string
		at   Time
	}
	var got []run
	e.AddTicker(5, func() { got = append(got, run{"old", e.Now()}) })
	e.RunUntil(2)
	got = got[:0]
	e.AddTicker(0, func() { got = append(got, run{"new", e.Now()}) })
	e.RunUntil(3)
	want := []run{{"new", 2}, {"new", 3}, {"old", 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
}

func TestAddTickerNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("AddTicker with a nil handler did not panic")
		}
	}()
	e.AddTicker(0, nil)
}

func TestAddTickerInsideHandlerPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.AddTicker(0, func() {
		defer func() { panicked = recover() != nil }()
		e.AddTicker(1, func() {})
	})
	e.RunUntil(0)
	if !panicked {
		t.Fatal("AddTicker from inside a handler did not panic")
	}
}

func TestTickerRunsCounted(t *testing.T) {
	e := NewEngine()
	runs := telemetry.NewRegistry().Counter("ticker_runs_total", "")
	e.SetTelemetry(Telemetry{TickerRuns: runs})
	e.AddTicker(0, func() {})
	e.AddTicker(1, func() {})
	e.RunUntil(4)
	if runs.Value() != 10 {
		t.Fatalf("TickerRuns = %d, want 10 (2 tickers x 5 ticks)", runs.Value())
	}
}

// Property: within a tick, any set of priorities runs in ascending order,
// registration order breaking ties.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(prios []uint8) bool {
		e := NewEngine()
		var got []int
		for i, p := range prios {
			e.AddTicker(int(p%4), func() { got = append(got, i) })
		}
		e.RunUntil(0)
		want := make([]int, len(prios))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return int(prios[a]%4) - int(prios[b]%4) })
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: across any sequence of RunUntil targets, a ticker sees every
// tick exactly once, in order, and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(targets []uint8) bool {
		e := NewEngine()
		var ticks []Time
		e.AddTicker(0, func() { ticks = append(ticks, e.Now()) })
		prev := e.Now()
		for _, u := range targets {
			e.RunUntil(Time(u))
			if e.Now() < prev {
				return false
			}
			prev = e.Now()
		}
		if len(targets) == 0 {
			return len(ticks) == 0
		}
		for i, at := range ticks {
			if at != Time(i) {
				return false
			}
		}
		return len(ticks) == int(e.Now())+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
