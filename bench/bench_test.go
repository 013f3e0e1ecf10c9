package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code in step:
// the same workloads and metrics, with the same units and directions,
// each way round, within the limits the file format sets.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	var jsonWorkloads, codeWorkloads []string
	for _, w := range bf.Workloads {
		jsonWorkloads = append(jsonWorkloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if !slices.Equal(jsonWorkloads, codeWorkloads) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", jsonWorkloads, codeWorkloads)
	}

	var e2e []metric
	largest := 0.0
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", e2e, endToEnd)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	var layers []metric
	for _, m := range bf.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and code differ:\n%v\n%v", layers, perLayer)
	}
}

// TestSmokeWorkloads runs every workload shrunk, untraced, and checks
// that it passes its own checks and emits exactly the end-to-end metrics,
// none of them zero.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.sim != nil && w.sim.window > w.sim.setupSeeds {
				t.Fatalf("window %d exceeds the %d seeds set up (and checked buildable)", w.sim.window, w.sim.setupSeeds)
			}
			rec, _, err := runOne(w, runOpts{seed: 1, budget: 200 * time.Millisecond, smoke: true}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := rec.Metrics[m.Name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %v (present %v)", m.Name, v.Value, ok)
				}
			}
			if len(rec.Metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, want %d", len(rec.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTracedSmoke checks a traced pass of a simulation workload and of the
// service: every per-layer metric emitted, the traced digest equal to the
// untraced one, and the top-level spans covering the run.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"paper-50", "dirqd-http"} {
		t.Run(name, func(t *testing.T) {
			i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
			rec, spans, err := runOne(workloads[i], runOpts{seed: 1, budget: 400 * time.Millisecond, smoke: true}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Fatalf("failed %d of %d: %v", rec.Failed, rec.Attempted, rec.Problems)
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Errorf("emitted %d metrics, want %d", len(rec.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := rec.Metrics[m.Name]; !ok {
					t.Errorf("%s missing", m.Name)
				}
			}
			total := time.Duration(0)
			for _, d := range layerSelfTimes(spans) {
				total += d
			}
			if total <= 0 || len(spans) == 0 {
				t.Errorf("no self time recorded from %d spans", len(spans))
			}
		})
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.client", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "serve.client", Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "scenario.Run", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "serve.handler", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	byLayer := layerSelfTimes(spans)
	if byLayer["serve"] != 60 || byLayer["bench"] != 40 || byLayer["scenario"] != 30 {
		t.Errorf("layer self times %v", byLayer)
	}
}

// TestClockIsMonotonic guards clock.go: instants derived from the timer's
// reading must carry the monotonic clock, or durations could jump with
// wall-clock adjustments.
func TestClockIsMonotonic(t *testing.T) {
	if s := now().String(); !strings.Contains(s, " m=") {
		t.Errorf("now() = %s has no monotonic reading", s)
	}
}

// TestRefKernel checks the reference kernel: once built it allocates
// nothing, so it cannot start a garbage collection inside a measurement,
// and atRef scales a duration by nominal over measured reference time.
func TestRefKernel(t *testing.T) {
	k := newRefKernel()
	if allocs := testing.AllocsPerRun(3, func() { k.run() }); allocs != 0 {
		t.Errorf("reference run allocates %v times", allocs)
	}
	if d := k.run(); d <= 0 {
		t.Errorf("reference run took %v", d)
	}
	if got := atRef(3*time.Millisecond, 2*refNominal); got != 1500*time.Microsecond {
		t.Errorf("3 ms next to a reference twice as slow as nominal reads %v, want 1.5 ms", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.P25 != 2.75 || s.Median != 5.5 || s.P75 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	if one := summarize([]float64{3}); one.P25 != 3 || one.Median != 3 || one.P75 != 3 {
		t.Errorf("single sample: %+v", one)
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var b bytes.Buffer
		for i, v := range values {
			r := record{Workload: "paper-50", Seed: uint64(i + 1), Correct: true, Attempted: 1, Metrics: map[string]reading{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = reading{Value: v, Unit: m.Unit}
			}
			line, _ := json.Marshal(r)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	doc := `{"workloads": [{"name": "paper-50", "why": "w"}], "end_to_end": [`
	for i, m := range endToEnd {
		if i > 0 {
			doc += ","
		}
		doc += `{"name": "` + m.Name + `", "unit": "` + m.Unit + `", "better": "` + m.Better + `", "bound": 0.1}`
	}
	if err := os.WriteFile(bench, []byte(doc+"]}"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", 100, 101, 99)
	near := write("b.jsonl", 102, 103, 101)
	far := write("c.jsonl", 120, 121, 119)
	var out bytes.Buffer
	if code := agree(&out, []string{a, near}, bench); code != 0 {
		t.Errorf("2%% apart: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := agree(&out, []string{a, far}, bench); code != 1 {
		t.Errorf("20%% apart: exit %d\n%s", code, out.String())
	}
}

// TestAPISurface keeps the benchmark off the APIs that the planned
// removal of intra-run sharding may delete, so it keeps compiling across
// that change: the Shards and DisableActivityGating knobs and the lmac,
// radio and sensordata packages.
func TestAPISurface(t *testing.T) {
	banned := map[string]bool{"Shards": true, "DisableActivityGating": true}
	bannedPkgs := []string{"repro/internal/lmac", "repro/internal/radio", "repro/internal/sensordata"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if slices.Contains(bannedPkgs, p) {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
				t.Errorf("%s refers to %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}
