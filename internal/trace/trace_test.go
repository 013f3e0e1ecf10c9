package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sensordata"
	"repro/internal/sim"
)

func TestNewRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewRecorder(10); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndEvents(t *testing.T) {
	r, _ := NewRecorder(10)
	for i := 0; i < 5; i++ {
		r.Record(sim.Time(i), core.TraceEvent{Kind: core.TraceUpdateSent, Node: 1, Peer: 0})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("%d events", len(evs))
	}
	for i, e := range evs {
		if e.Epoch != sim.Time(i) {
			t.Fatalf("order wrong: %v", evs)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}
}

func TestRingEviction(t *testing.T) {
	r, _ := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(sim.Time(i), core.TraceEvent{Kind: core.TraceDeath, Node: 1})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Epoch != 4 || evs[2].Epoch != 6 {
		t.Fatalf("wrong retained window: %v", evs)
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d, want 7 (evicted still counted)", r.Total())
	}
}

func TestCountsAndFilter(t *testing.T) {
	r, _ := NewRecorder(100)
	r.Record(0, core.TraceEvent{Kind: core.TraceUpdateSent})
	r.Record(1, core.TraceEvent{Kind: core.TraceUpdateSent})
	r.Record(2, core.TraceEvent{Kind: core.TraceQueryReceived, QueryID: 7})
	if r.Count(core.TraceUpdateSent) != 2 {
		t.Fatal("update count")
	}
	if r.Count(core.TraceDeath) != 0 {
		t.Fatal("phantom deaths")
	}
	q := r.Filter(core.TraceQueryReceived)
	if len(q) != 1 || q[0].Event.QueryID != 7 {
		t.Fatalf("filter %v", q)
	}
}

func TestStampedString(t *testing.T) {
	cases := []core.TraceEvent{
		{Kind: core.TraceUpdateSent, Node: 3, Peer: 1, Type: sensordata.Humidity},
		{Kind: core.TraceWithdraw, Node: 3, Peer: 1, Type: sensordata.Light},
		{Kind: core.TraceQueryReceived, Node: 5, QueryID: 42},
		{Kind: core.TraceQuerySource, Node: 5, QueryID: 42},
		{Kind: core.TraceEstimate, Node: 0, QueryID: 9},
		{Kind: core.TraceDeath, Node: 8, Peer: 2},
		{Kind: core.TraceReattach, Node: 8, Peer: 4},
		{Kind: core.TraceJoin, Node: 9, Peer: 4},
	}
	for _, ev := range cases {
		s := Stamped{Epoch: 100, Event: ev}.String()
		if !strings.Contains(s, ev.Kind.String()) {
			t.Fatalf("%q missing kind %q", s, ev.Kind)
		}
	}
}

func TestDump(t *testing.T) {
	r, _ := NewRecorder(10)
	r.Record(5, core.TraceEvent{Kind: core.TraceJoin, Node: 2, Peer: 0})
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "join") {
		t.Fatalf("dump: %s", buf.String())
	}
}

func TestHookStampsEngineTime(t *testing.T) {
	r, _ := NewRecorder(10)
	e := sim.NewEngine()
	hook := r.Hook(e)
	e.AddTicker(0, func() {
		if e.Now() == 42 {
			hook(core.TraceEvent{Kind: core.TraceDeath, Node: 1})
		}
	})
	e.RunUntil(50)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Epoch != 42 {
		t.Fatalf("events %v", evs)
	}
}

func TestTraceKindStrings(t *testing.T) {
	kinds := []core.TraceKind{
		core.TraceUpdateSent, core.TraceWithdraw, core.TraceQueryReceived,
		core.TraceQuerySource, core.TraceEstimate, core.TraceDeath,
		core.TraceReattach, core.TraceJoin,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "" || seen[name] {
			t.Fatalf("kind %d name %q duplicate or empty", k, name)
		}
		seen[name] = true
	}
	if core.TraceKind(99).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}
