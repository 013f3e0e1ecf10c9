package sim

import (
	"fmt"

	"repro/internal/telemetry"
)

// Time is the simulation clock in discrete ticks. One tick corresponds to
// one epoch in the paper's terminology (one sensor acquisition interval).
type Time int64

// Handler is a scheduled simulation action.
type Handler func()

// event is a single queue entry, held by value in the engine's heap so
// scheduling does not allocate once the heap slice has grown to the peak
// number of pending events. Events with equal time run in ascending
// priority order; ties break on insertion sequence so execution order is
// fully deterministic.
type event struct {
	at       Time
	priority int
	seq      uint64
	fn       Handler
}

// before orders two events by (at, priority, seq).
func (x *event) before(y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.priority != y.priority {
		return x.priority < y.priority
	}
	return x.seq < y.seq
}

// EventID identifies a scheduled event so it can be canceled. The zero
// value is invalid (Cancel on it is a no-op). An EventID becomes stale —
// and Cancel on it a no-op — once the event has run, been canceled, or the
// engine has been Reset.
type EventID struct {
	seq uint64 // the event's seq + 1; 0 means "no event"
}

// ticker is a handler that runs at every clock tick. Tickers exist so
// per-epoch loops (the protocol's sensor sweep, the MAC frame) do not pay a
// heap push + pop per epoch: the engine batch-advances the clock tick by
// tick and calls each due ticker directly. At a given time, work is ordered
// by priority, with a ticker running before heap events of the same
// priority — exactly the order a self-rescheduling event chain had, since
// such a chain's event always carried a lower sequence number than anything
// scheduled during the current tick.
type ticker struct {
	prio int
	next Time // next tick this ticker is due at
	fn   Handler
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine.
//
// Internally the queue is a binary min-heap of events held by value, so
// steady-state Schedule/Step cycles perform no heap allocations once the
// slice has grown to the peak number of pending events.
type Engine struct {
	now     Time
	heap    []event // binary min-heap keyed (at, priority, seq)
	tickers []ticker
	seq     uint64
	stopped bool
	steps   uint64
	running bool // inside runAt (AddTicker must not reshuffle mid-tick)
	tel     Telemetry
}

// Telemetry is the engine's instrument set. Every field may be nil
// (instrument methods are nil-safe no-ops), so the zero value disables
// instrumentation entirely. Counters are write-only from the engine:
// nothing in scheduling or dispatch reads them back, so an instrumented
// run executes the identical event sequence.
type Telemetry struct {
	// Scheduled counts events enqueued via Schedule/SchedulePrio.
	Scheduled *telemetry.Counter
	// Dispatched counts heap events actually executed (canceled events
	// are not dispatched).
	Dispatched *telemetry.Counter
	// TickerRuns counts ticker firings (the per-epoch protocol and MAC
	// loops, which bypass the heap).
	TickerRuns *telemetry.Counter
	// HeapPeak tracks the high watermark of the event heap depth.
	HeapPeak *telemetry.Gauge
}

// SetTelemetry binds (or, with the zero value, unbinds) the engine's
// instruments. Reset clears the binding.
func (e *Engine) SetTelemetry(t Telemetry) { e.tel = t }

// NewEngine returns an engine with the clock at 0 and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.heap) }

// Reset returns the engine to its initial state — clock at 0, empty queue,
// no tickers, zero step count, not stopped — while keeping the heap's
// capacity. The sequence counter is not rewound: ordering reads only
// relative sequence numbers, and an EventID issued before the Reset can
// never match a later event.
func (e *Engine) Reset() {
	clear(e.heap) // release closure references to the old run
	e.heap = e.heap[:0]
	clear(e.tickers)
	e.tickers = e.tickers[:0]
	e.now = 0
	e.steps = 0
	e.stopped = false
	e.running = false
	e.tel = Telemetry{}
}

// AddTicker registers fn to run at every clock tick from the current time
// on, at the given priority relative to heap events sharing the tick (a
// ticker runs before heap events of equal priority; among tickers,
// registration order breaks priority ties). Tickers are honored by Run and
// RunUntil — they replace the schedule-next-tick pattern for work that is
// due every single epoch, eliminating the per-epoch heap traffic. They
// cannot be canceled; register them once per run (Reset removes all).
// AddTicker must not be called from inside a running handler.
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

// siftUp restores the heap property from position i upward.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the heap property from position i downward.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// remove deletes the heap entry at position i: the last entry takes its
// place, and the vacated slot is cleared so the heap's backing array does
// not keep the removed closure alive.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	e.heap[i] = e.heap[n]
	e.heap[n] = event{}
	e.heap = e.heap[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
}

// Schedule enqueues fn to run at absolute time at with priority 0.
// Scheduling in the past (before Now) panics: it indicates a protocol bug.
func (e *Engine) Schedule(at Time, fn Handler) EventID {
	return e.SchedulePrio(at, 0, fn)
}

// ScheduleIn enqueues fn to run delay ticks from now.
func (e *Engine) ScheduleIn(delay Time, fn Handler) EventID {
	return e.SchedulePrio(e.now+delay, 0, fn)
}

// SchedulePrio enqueues fn at absolute time at with an explicit priority.
// Lower priorities run first among events that share a timestamp.
func (e *Engine) SchedulePrio(at Time, priority int, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil handler")
	}
	e.heap = append(e.heap, event{at: at, priority: priority, seq: e.seq, fn: fn})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	e.tel.Scheduled.Inc()
	e.tel.HeapPeak.SetMax(int64(len(e.heap)))
	return EventID{seq: e.seq}
}

// Cancel removes a scheduled event. Canceling an already-run or
// already-canceled event is a no-op. Reports whether the event was live.
// The search is linear in the number of pending events, which is tiny
// for every run this engine hosts.
func (e *Engine) Cancel(id EventID) bool {
	if id.seq == 0 {
		return false
	}
	for i := range e.heap {
		if e.heap[i].seq == id.seq-1 {
			e.remove(i)
			return true
		}
	}
	return false
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped || len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	e.remove(0)
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.steps++
	e.tel.Dispatched.Inc()
	ev.fn()
	return true
}

// runAt executes, in priority order, every ticker due at time t and every
// heap event scheduled at t, including events scheduled at t by the
// handlers themselves. The clock must already be at t.
func (e *Engine) runAt(t Time) {
	e.running = true
	ti := 0
	for !e.stopped {
		// Skip tickers not yet due (registered mid-run for a later tick).
		for ti < len(e.tickers) && e.tickers[ti].next > t {
			ti++
		}
		headReady := len(e.heap) > 0 && e.heap[0].at == t
		switch {
		case ti < len(e.tickers) &&
			(!headReady || e.tickers[ti].prio <= e.heap[0].priority):
			tk := &e.tickers[ti]
			tk.next = t + 1
			ti++
			e.steps++
			e.tel.TickerRuns.Inc()
			tk.fn()
		case headReady:
			e.Step()
		default:
			e.running = false
			return
		}
	}
	e.running = false
}

// nextWork returns the earliest time at which a ticker or a queued event is
// due; ok is false when nothing is pending at all.
func (e *Engine) nextWork() (Time, bool) {
	ok := false
	var next Time
	if len(e.heap) > 0 {
		next, ok = e.heap[0].at, true
	}
	for i := range e.tickers {
		if !ok || e.tickers[i].next < next {
			next, ok = e.tickers[i].next, true
		}
	}
	return next, ok
}

// Run executes events until the queue drains or the engine is stopped.
// Registered tickers fire at every tick the clock passes through on the
// way, but do not by themselves keep Run alive: once the heap is empty,
// Run returns.
func (e *Engine) Run() {
	for !e.stopped {
		if len(e.heap) == 0 {
			return
		}
		next, _ := e.nextWork()
		if next > e.now {
			e.now = next
		}
		e.runAt(e.now)
	}
}

// RunUntil executes events with timestamps <= until (inclusive) and every
// ticker due on the way, leaving later events queued, and advances the
// clock to until.
func (e *Engine) RunUntil(until Time) {
	for !e.stopped {
		next, ok := e.nextWork()
		if !ok || next > until {
			if e.now < until {
				e.now = until
			}
			return
		}
		if next > e.now {
			e.now = next
		}
		e.runAt(e.now)
	}
}

// Stop halts Run / RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
