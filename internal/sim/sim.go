package sim

import "repro/internal/telemetry"

// Time is the simulation clock in discrete ticks. One tick corresponds to
// one epoch in the paper's terminology (one sensor acquisition interval).
type Time int64

// Handler is a ticker's per-tick action.
type Handler func()

// ticker is a handler that runs at every clock tick from the tick it was
// registered at.
type ticker struct {
	prio int
	next Time // next tick this ticker is due at
	fn   Handler
}

// Engine is the deterministic epoch clock: a list of tickers that
// RunUntil calls tick by tick. Construct with NewEngine.
type Engine struct {
	now     Time
	tickers []ticker // ascending priority, registration order within one
	running bool     // inside RunUntil (AddTicker must not reshuffle mid-tick)
	tel     Telemetry
}

// Telemetry is the engine's instrument set. A nil field is a no-op, so the
// zero value disables instrumentation. The engine only writes it, so an
// instrumented run executes the identical sequence of handlers.
type Telemetry struct {
	// TickerRuns counts ticker firings.
	TickerRuns *telemetry.Counter
}

// SetTelemetry binds (or, with the zero value, unbinds) the engine's
// instruments.
func (e *Engine) SetTelemetry(t Telemetry) { e.tel = t }

// NewEngine returns an engine with the clock at 0 and no tickers.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// AddTicker registers fn to run at every clock tick from the current one
// on. Within a tick, tickers run in ascending priority, and registration
// order breaks priority ties. A ticker registered after RunUntil(t) first
// runs at tick t, on the next RunUntil. Tickers cannot be removed; a
// ticker that acts only at some ticks checks Now itself. AddTicker panics
// on a nil handler and when called from inside a handler.
func (e *Engine) AddTicker(prio int, fn Handler) {
	if fn == nil {
		panic("sim: AddTicker with nil handler")
	}
	if e.running {
		panic("sim: AddTicker from inside a handler")
	}
	i := len(e.tickers)
	for i > 0 && e.tickers[i-1].prio > prio {
		i--
	}
	e.tickers = append(e.tickers, ticker{})
	copy(e.tickers[i+1:], e.tickers[i:])
	e.tickers[i] = ticker{prio: prio, next: e.now, fn: fn}
}

// RunUntil runs every tick from the current one through until, inclusive,
// calling each ticker due at that tick, and leaves the clock at until (or
// where it was, if that is later). The current tick runs only the tickers
// that have not run at it yet, so the first RunUntil also runs tick 0.
func (e *Engine) RunUntil(until Time) {
	e.running = true
	for t := e.now; t <= until; t++ {
		e.now = t
		for i := range e.tickers {
			tk := &e.tickers[i]
			if tk.next > t {
				continue
			}
			tk.next = t + 1
			e.tel.TickerRuns.Inc()
			tk.fn()
		}
	}
	e.running = false
}
