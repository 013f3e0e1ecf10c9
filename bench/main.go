// Command bench is the repository's benchmark. It runs named workloads
// against the DirQ simulator and the dirqd serving stack, checks that
// their outputs are correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) spends half its time untraced and half traced, and reports
// the per-layer metrics, each layer's self time and the tracing overhead.
// The metrics, workloads and bounds are listed in BENCHMARK.json at the
// repository root; README.md explains them.
//
// Usage:
//
//	bench -workload paper-50|field-25k|churn-atc-2k|dirqd-http|all [-seed 1] [-seconds 20]
//	      [-trace 0|1] [-spans spans.json] [-out results.jsonl] [-smoke]
//	bench [-benchmark BENCHMARK.json] -agree A.jsonl B.jsonl
//
// -out appends one JSON line per workload run, with medians, quartiles
// and sample counts; -agree compares two such files against the
// end-to-end bounds in BENCHMARK.json and exits nonzero if they disagree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// runOpts are the inputs every workload takes.
type runOpts struct {
	seed   uint64
	budget time.Duration // how long the workload measures
	smoke  bool          // shrink the workload for a quick functional pass
}

// workload is one named set of inputs. Simulation workloads carry their
// shape; the service workload runs runHTTP.
type workload struct {
	name string
	sim  *simWorkload
}

// workloads are chosen to stress different layers (README.md says why).
var workloads = []workload{
	{"paper-50", &simWorkload{
		nodes: 50, smokeNodes: 50, epochs: 20000, smokeEpochs: 1000,
		modes:      []string{"fixed", "atc", "flood"},
		setupSeeds: 64, window: 16, minReps: 4, chunk: 500, smokeChunk: 500,
	}},
	{"field-25k", &simWorkload{
		nodes: 25000, smokeNodes: 2000, epochs: 500, smokeEpochs: 100,
		modes:      []string{"fixed"},
		setupSeeds: 3, window: 3, minReps: 2, chunk: 20, smokeChunk: 20,
	}},
	{"churn-atc-2k", &simWorkload{
		nodes: 2000, smokeNodes: 150, epochs: 5600, smokeEpochs: 5600,
		modes: []string{"atc"}, script: churnScript,
		setupSeeds: 32, window: 4, minReps: 2, chunk: 20, smokeChunk: 200,
	}},
	{"dirqd-http", nil},
}

func (w workload) run(o runOpts, tr *tracer) (*outcome, error) {
	if w.sim != nil {
		return w.sim.run(w.name, o, tr)
	}
	return runHTTP(o, tr)
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	samples   map[string][]float64 // end-to-end metric → samples
	layer     map[string]float64   // per-layer metric → value (traced passes)
	attempted int
	failed    int
	problems  []string
	digest    string          // simulation workloads: digest of the first minReps repetitions
	refs      []time.Duration // the reference kernel's runs during the measurement (ref.go)
}

func newOutcome() *outcome { return &outcome{samples: map[string][]float64{}} }

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// reading is one reported metric. Quartiles and the sample count go to
// -out files and the printed table, not to the final result line.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
}

// record is one workload run, as -out stores it and -agree reads it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	Digest    string             `json:"digest,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	RefUs     float64            `json:"ref_us"` // the reference kernel's median time: the host's speed
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload and reduces it to a record. A traced run also
// returns its spans.
func runOne(w workload, o runOpts, traced bool) (*record, []span, error) {
	rec := &record{Workload: w.name, Seed: o.seed, Trace: traced, Metrics: map[string]reading{}}
	if !traced {
		oc, err := w.run(o, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		checkDigest(w.name, o, oc)
		for _, m := range endToEnd {
			s := summarize(oc.samples[m.Name])
			rec.Metrics[m.Name] = reading{Value: s.Median, Unit: m.Unit, P25: s.P25, P75: s.P75, N: s.N}
		}
		rec.finish(oc)
		return rec, nil, nil
	}

	half := o
	half.budget = o.budget / 2
	base, err := w.run(half, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr := newTracer()
	oc, err := w.run(half, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	checkDigest(w.name, o, base)
	checkDigest(w.name, o, oc)
	if base.digest != oc.digest {
		oc.fail("traced digest %s differs from the untraced %s", oc.digest, base.digest)
	}
	oc.attempted += base.attempted
	oc.failed += base.failed
	oc.problems = append(oc.problems, base.problems...)
	oc.refs = append(oc.refs, base.refs...)

	spans := tr.recorded()
	self := layerSelfTimes(spans)
	for _, m := range perLayer {
		if l, ok := strings.CutSuffix(m.Name, ".self_s"); ok {
			oc.layer[m.Name] = self[l].Seconds()
		}
	}
	plainRate := summarize(base.samples["throughput_per_cpu_s"]).Median
	tracedRate := summarize(oc.samples["throughput_per_cpu_s"]).Median
	oc.layer["trace_overhead_pct"] = (plainRate/tracedRate - 1) * 100
	oc.layer["bench.ref_us"] = float64(medianDuration(oc.refs)) / float64(time.Microsecond)
	for _, m := range perLayer {
		v := oc.layer[m.Name]
		rec.Metrics[m.Name] = reading{Value: v, Unit: m.Unit, P25: v, P75: v, N: 1}
	}
	rec.finish(oc)
	return rec, spans, nil
}

func (r *record) finish(oc *outcome) {
	r.Attempted, r.Failed, r.Digest, r.Problems = oc.attempted, oc.failed, oc.digest, oc.problems
	r.Correct = oc.failed == 0 && oc.attempted > 0
	r.RefUs = float64(medianDuration(oc.refs)) / float64(time.Microsecond)
}

// printRecord writes the human-readable block for one run.
func printRecord(w io.Writer, r *record, spans []span) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s)\n", r.Workload, r.Seed, mode)
	if !r.Trace {
		fmt.Fprintf(w, "%-40s %-12s %14s %14s %14s %6s\n", "metric", "unit", "median", "p25", "p75", "n")
		for _, m := range endToEnd {
			v := r.Metrics[m.Name]
			fmt.Fprintf(w, "%-40s %-12s %14.6g %14.6g %14.6g %6d\n", m.Name, m.Unit, v.Value, v.P25, v.P75, v.N)
		}
	} else {
		fmt.Fprintf(w, "%-40s %-12s %14s\n", "metric", "unit", "value")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-40s %-12s %14.6g\n", m.Name, m.Unit, r.Metrics[m.Name].Value)
		}
		self := selfTimes(spans)
		for _, root := range spans {
			if root.Parent != 0 {
				continue
			}
			top := self[root.ID]
			for _, s := range spans {
				if s.Parent == root.ID {
					top += s.dur()
				}
			}
			fmt.Fprintf(w, "top-level spans of %s: %.3f s of %.3f s wall (%.1f%%)\n",
				root.Name, top.Seconds(), root.dur().Seconds(), 100*top.Seconds()/root.dur().Seconds())
		}
	}
	fmt.Fprintf(w, "reference kernel: median %.0f us (nominal %.0f us)\n", r.RefUs, float64(refNominal)/float64(time.Microsecond))
	fmt.Fprintf(w, "checks: %d operations, %d failed\n", r.Attempted, r.Failed)
	if r.Digest != "" {
		fmt.Fprintf(w, "digest: %s\n", r.Digest)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
}

// envBlock describes the host, so numbers are read against it.
func envBlock() string {
	s := fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if mem, load, ok := hostLoad(); ok {
		s += fmt.Sprintf(" memtotal_bytes=%d loadavg=%.2f,%.2f,%.2f", mem, load[0], load[1], load[2])
	}
	return s
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 20, "how long each workload measures")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spansPath := flag.String("spans", "", "with -trace 1, write the recorded spans here (JSON)")
	outPath := flag.String("out", "", "append each run's record to this file (JSON lines)")
	smoke := flag.Bool("smoke", false, "shrink every workload for a quick functional pass")
	agreeMode := flag.Bool("agree", false, "compare two -out files: -agree A.jsonl B.jsonl")
	benchPath := flag.String("benchmark", "BENCHMARK.json", "bounds file for -agree")
	flag.Parse()

	if *agreeMode {
		os.Exit(agree(os.Stdout, flag.Args(), *benchPath))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace %d: want 0 or 1", *trace)
	}
	if !(*secs > 0) {
		fatalf("-seconds %v: want a positive duration", *secs)
	}
	var sel []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		fatalf("unknown workload %q", *name)
	}
	o := runOpts{seed: *seed, budget: time.Duration(*secs * float64(time.Second)), smoke: *smoke}

	fmt.Printf("# env %s\n", envBlock())
	final := resultLine{Correct: true, Metrics: map[string]valueWithUnit{}}
	var allSpans []span
	for _, w := range sel {
		rec, spans, err := runOne(w, o, *trace == 1)
		if err != nil {
			fatalf("%v", err)
		}
		printRecord(os.Stdout, rec, spans)
		allSpans = append(allSpans, spans...)
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				fatalf("%v", err)
			}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(sel) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = valueWithUnit{Value: v.Value, Unit: v.Unit}
		}
	}
	if *spansPath != "" && *trace == 1 {
		if err := writeSpans(*spansPath, allSpans); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Printf("# env at end %s\n", envBlock())
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// appendRecord adds one JSON line to path.
func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", path, err)
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
