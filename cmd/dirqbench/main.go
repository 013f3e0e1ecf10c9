// Command dirqbench measures the large-N scale ladder and records the
// results as a machine-readable BENCH_<rev>.json.
//
// The ladder runs fixed-δ simulations at 50 through 100 000 nodes, plus an
// ungated ("naive") run at 1000 nodes whose ratio to its gated sibling is
// the activity-gating speedup. Each entry times the steady state only
// (construction runs under a stopped timer) and records construction
// separately as setup_ns_per_op plus bytes_per_node, the built
// simulation's live heap per node. The paper-scale workloads, the query
// path and the substrate micro-benches live elsewhere: the bench/ module
// (paper-50, dirqd-http, ...) and the Go benchmarks in the root
// bench_test.go.
//
// Usage:
//
//	dirqbench [-quick] [-n 3] [-bench regexp] [-rev auto] [-out path]
//	dirqbench -bench 'scale/fixed-1000' -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dirqbench -check BENCH_x.json   # validate a previously written file
//	dirqbench -list                 # print benchmark names and exit
//	dirqbench -compare BENCH_base.json [-tolerance 0.30] [candidate.json]
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// benchmarks (use -bench to focus on one), so perf work starts from a
// profile instead of a guess: `go tool pprof cpu.pb.gz`.
//
// -compare is the regression gate CI runs. It loads the baseline, obtains
// a candidate (the positional file if given, otherwise a fresh measurement
// at the baseline's own scale) and gates on axes a slow host cannot fail:
//
//   - memory, against the baseline: a rung's bytes_per_node may not exceed
//     the baseline's by more than -tolerance (plus a small absolute
//     slack), and at 5000+ nodes it may never exceed the 4 KB/node budget;
//   - speed, on the candidate alone: two throughput ratios between rungs
//     of the same run (ratioFloors), where host speed cancels. They are
//     sized at full scale and skipped for a -quick candidate.
//
// Absolute epochs/sec is printed for context but does not gate. A rung the
// baseline or a ratio needs that is missing from the candidate fails the
// gate, as does a baseline with nothing comparable.
//
// Each benchmark executes -n times through testing.Benchmark; the fastest
// run is reported, with its own allocation stats (ns/op, bytes/op and
// allocs/op always come from the same run, so entries stay internally
// consistent however warm caches and pools are when that run happens).
// -quick shortens every rung's horizon so a smoke pass takes seconds.
//
// The output schema is documented in PERFORMANCE.md and validated by
// -check (also used by CI to fail on malformed output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SchemaID identifies the BENCH_*.json format; bump on breaking changes.
const SchemaID = "dirq/bench/v1"

// File is the top-level BENCH_*.json document.
type File struct {
	Schema    string `json:"schema"`
	Rev       string `json:"rev"`
	Timestamp string `json:"timestamp"` // RFC 3339, UTC
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) at measurement time, alongside
	// CPUs (the host's runtime.NumCPU): together they make multi-core
	// claims checkable from the artifact alone. Absent in files written
	// before rev pr9.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// MemTotalBytes is the host's physical memory (MemTotal from
	// /proc/meminfo; 0 where unavailable). Recorded so the bytes-per-node
	// column can be read against what the measuring host could actually
	// hold — a 2.6 GB 100k-node footprint means something different on an
	// 8 GB runner than on a 256 GB build box. Absent before rev pr10.
	MemTotalBytes int64   `json:"mem_total_bytes,omitempty"`
	Quick         bool    `json:"quick"`
	Iterations    int     `json:"iterations"`
	Benchmarks    []Entry `json:"benchmarks"`
}

// Entry is one scale rung's result.
type Entry struct {
	Name        string  `json:"name"`
	Group       string  `json:"group"` // always "scale"
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Runs        int     `json:"runs"`

	Nodes            int     `json:"nodes,omitempty"`
	Epochs           int64   `json:"epochs,omitempty"`
	EpochsPerSec     float64 `json:"epochs_per_sec,omitempty"`
	NodeEpochsPerSec float64 `json:"node_epochs_per_sec,omitempty"`

	// Setup/steady split. NsPerOp excludes construction, which runs under
	// a stopped timer, so EpochsPerSec measures the per-epoch engine and
	// not the build. SetupNsPerOp is one untimed construction of the same
	// config, and BytesPerNode is its live heap footprint after a warmup
	// step, per node — the number the large-N budget gate bounds. Absent
	// in files written before rev pr10.
	SetupNsPerOp float64 `json:"setup_ns_per_op,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`

	// Telemetry carries informational counter totals (and histogram
	// counts) from one extra telemetry-instrumented run of the same
	// workload: where the work goes per benchmark, not a timing input.
	Telemetry map[string]int64 `json:"telemetry,omitempty"`
}

// spec declares one scale rung: its name and the simulation it runs.
type spec struct {
	name string
	cfg  scenario.Config
}

// scalePoints are the large-N workload sizes. Small rungs keep the
// original constant-node-epochs sizing (1M full scale); the 25k and 100k
// rungs run much longer horizons (12.5M and 60M node-epochs) — at their
// old 40 and 10 epochs those rungs spent most of their wall time
// constructing the network, so their "throughput" mostly measured the
// build. With steady state timed on its own (runScale) and these
// horizons, the steady phase is ≥ 80% of each full-scale iteration's
// wall time and the column actually measures epochs.
var scalePoints = []struct {
	nodes        int
	epochs       int64
	quickEpochs  int64
	includeNaive bool
}{
	{nodes: 50, epochs: 20000, quickEpochs: 3000},
	{nodes: 250, epochs: 4000, quickEpochs: 600},
	{nodes: 1000, epochs: 1000, quickEpochs: 150, includeNaive: true},
	{nodes: 5000, epochs: 1000, quickEpochs: 30},
	{nodes: 25000, epochs: 500, quickEpochs: 20},
	{nodes: 100000, epochs: 600, quickEpochs: 5},
}

// scaleScenario builds one large-N workload config: constant node density
// (scenario.ScaleDefault), fixed-δ mode, the paper's query cadence.
func scaleScenario(nodes int, epochs int64, naive bool) scenario.Config {
	cfg := scenario.ScaleDefault(nodes)
	cfg.Epochs = epochs
	cfg.DisableActivityGating = naive
	return cfg
}

// measureSetup builds cfg once, untimed, and reports the construction
// wall time plus the built simulation's live heap per node. The footprint
// is the GC-settled HeapAlloc delta around a build plus one warmup epoch,
// so transient construction garbage does not count against the budget but
// every retained per-node structure (windows, escape calendars, range
// tables, MAC frame state, event queue) does.
func measureSetup(cfg scenario.Config) (nsPerOp, bytesPerNode float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := scenario.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	nsPerOp = float64(time.Since(t0).Nanoseconds())
	r.Start()
	r.Step(1)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	live := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	runtime.KeepAlive(r)
	if cfg.NumNodes > 0 && live > 0 {
		bytesPerNode = live / float64(cfg.NumNodes)
	}
	return nsPerOp, bytesPerNode, nil
}

// telemetrySnapshot runs cfg once with a fresh registry and flattens the
// counters (and histogram counts) into the Entry's informational map.
func telemetrySnapshot(cfg scenario.Config) (map[string]int64, error) {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := scenario.Run(cfg); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%q", k, s.Labels[k]))
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		switch s.Kind {
		case telemetry.KindHistogram:
			out[key+"_count"] = s.Count
		default:
			out[key] = int64(s.Value)
		}
	}
	return out, nil
}

// runScale times the steady state alone: construction happens under a
// stopped timer (on a recycled engine, as the sweeps do), so the recorded
// epochs/sec is the per-epoch engine's and a large-N point is not
// flattered or damned by its one-off build. Setup cost is measured
// separately (measureSetup) and recorded in its own columns. The run has a
// telemetry registry attached, so the recorded throughput is the
// instrumented build's.
func runScale(b *testing.B, cfg scenario.Config) {
	cfg.Telemetry = telemetry.NewRegistry()
	engine := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := scenario.BuildWithEngine(cfg, engine)
		if err != nil {
			b.Fatal(err)
		}
		// GC-settle before timing so each rung's GC behaviour depends
		// only on its own live set, not on how much garbage earlier
		// specs left behind (a large inherited heap raises the GC
		// trigger and flatters whichever small rung runs next).
		runtime.GC()
		b.StartTimer()
		r.Run()
	}
}

// specs assembles the scale ladder.
func specs(quick bool) []spec {
	var all []spec
	for _, sp := range scalePoints {
		ep := sp.epochs
		if quick {
			ep = sp.quickEpochs
		}
		all = append(all, spec{fmt.Sprintf("scale/fixed-%d", sp.nodes), scaleScenario(sp.nodes, ep, false)})
		if sp.includeNaive {
			// The ungated build at the same scale: the ratio to its gated
			// sibling is the activity-gating speedup the gate tracks.
			all = append(all, spec{fmt.Sprintf("scale/naive-%d", sp.nodes), scaleScenario(sp.nodes, ep, true)})
		}
	}
	return all
}

// measure runs one spec n times and keeps the fastest run.
func measure(s spec, n int) Entry {
	e := Entry{Name: s.name, Group: "scale", Runs: n}
	for run := 0; run < n; run++ {
		r := testing.Benchmark(func(b *testing.B) { runScale(b, s.cfg) })
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		// Keep the fastest run whole — its time AND its allocation stats —
		// so an entry is one run's self-consistent measurement (pooled
		// paths allocate less once warm, so stats can vary across runs).
		if run == 0 || ns < e.NsPerOp {
			e.NsPerOp = ns
			e.BytesPerOp = r.AllocedBytesPerOp()
			e.AllocsPerOp = r.AllocsPerOp()
		}
	}
	e.Nodes = s.cfg.NumNodes
	e.Epochs = s.cfg.Epochs
	e.EpochsPerSec = float64(e.Epochs) * 1e9 / e.NsPerOp
	e.NodeEpochsPerSec = e.EpochsPerSec * float64(e.Nodes)
	ns, bpn, err := measureSetup(s.cfg)
	if err != nil {
		log.Fatalf("%s: setup measurement: %v", s.name, err)
	}
	e.SetupNsPerOp = ns
	e.BytesPerNode = bpn
	return e
}

// memTotalBytes reports the host's physical memory (MemTotal from
// /proc/meminfo), or 0 where the file is absent or unparsable (non-Linux
// hosts): the env block then simply omits the field.
func memTotalBytes() int64 {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// detectRev resolves the revision tag for the output file name: the short
// git commit hash when available, "local" otherwise.
func detectRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "local"
	}
	return strings.TrimSpace(string(out))
}

// Validate checks a decoded bench file against the schema invariants.
// This is the contract CI enforces on every measured file.
func (f *File) Validate() error {
	if f.Schema != SchemaID {
		return fmt.Errorf("schema %q, want %q", f.Schema, SchemaID)
	}
	if f.Rev == "" {
		return fmt.Errorf("empty rev")
	}
	if _, err := time.Parse(time.RFC3339, f.Timestamp); err != nil {
		return fmt.Errorf("bad timestamp %q: %v", f.Timestamp, err)
	}
	if f.Iterations < 1 {
		return fmt.Errorf("iterations %d < 1", f.Iterations)
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks")
	}
	seen := map[string]bool{}
	for i, b := range f.Benchmarks {
		switch {
		case b.Name == "":
			return fmt.Errorf("benchmark %d: empty name", i)
		case seen[b.Name]:
			return fmt.Errorf("benchmark %d: duplicate name %q", i, b.Name)
		case b.Group != "scale":
			return fmt.Errorf("benchmark %q: unknown group %q", b.Name, b.Group)
		case b.NsPerOp <= 0:
			return fmt.Errorf("benchmark %q: ns_per_op %v <= 0", b.Name, b.NsPerOp)
		case b.AllocsPerOp < 0 || b.BytesPerOp < 0:
			return fmt.Errorf("benchmark %q: negative allocation stats", b.Name)
		case b.Nodes <= 0 || b.Epochs <= 0:
			return fmt.Errorf("benchmark %q: scale bench without nodes/epochs", b.Name)
		case b.EpochsPerSec <= 0 || b.NodeEpochsPerSec <= 0:
			return fmt.Errorf("benchmark %q: missing throughput", b.Name)
		case b.SetupNsPerOp < 0 || b.BytesPerNode < 0:
			return fmt.Errorf("benchmark %q: negative setup stats", b.Name)
		}
		seen[b.Name] = true
	}
	return nil
}

// loadFile reads and validates one BENCH_*.json.
func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

func check(path string) error {
	f, err := loadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid (%s, rev %s, %d benchmarks)\n", path, f.Schema, f.Rev, len(f.Benchmarks))
	return nil
}

// measureAll runs every spec, logging progress to stderr.
func measureAll(all []spec, iters int) []Entry {
	var out []Entry
	for _, s := range all {
		fmt.Fprintf(os.Stderr, "running %-24s ", s.name)
		e := measure(s, iters)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d allocs/op  %10.0f epochs/s  %12.0f node-epochs/s  setup %6.0f ms  %6.0f B/node\n",
			e.NsPerOp, e.AllocsPerOp, e.EpochsPerSec, e.NodeEpochsPerSec, e.SetupNsPerOp/1e6, e.BytesPerNode)
		if t, err := telemetrySnapshot(s.cfg); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry snapshot for %s failed: %v\n", s.name, err)
		} else {
			e.Telemetry = t
		}
		out = append(out, e)
	}
	return out
}

// The memory axes. bytesPerNodeBudget is the absolute live-heap budget
// per node (the ladder toward 1M nodes in PERFORMANCE.md is priced
// against it): any rung of at least bytesPerNodeBudgetMinNodes nodes whose
// candidate bytes_per_node exceeds it fails the gate outright, baseline or
// no baseline. Smaller rungs are exempt — fixed per-simulation overhead
// (engine, registry, channel) amortized over a handful of nodes dwarfs the
// true per-node state. bpnSlackBytes is the absolute grace on the
// relative axis: GC-settled footprints wobble a few cache lines run to
// run, and a tight baseline must not turn that wobble into a red gate.
const (
	bytesPerNodeBudget         = 4096
	bytesPerNodeBudgetMinNodes = 5000
	bpnSlackBytes              = 256
)

// ratioFloors are the speed axes. Each divides the node-epochs/s of two
// rungs from the same candidate run, so host speed cancels and a slow
// runner cannot fail them. Each floor sits below the lowest of the 20
// full-scale runs recorded in PERFORMANCE.md ("The bench-regression
// gate") and above what the step change it exists for reads.
var ratioFloors = []struct {
	num, den string
	floor    float64
}{
	// Large-N locality: runs read 0.73-1.33; the large-N cliff the engine
	// once had (24k against ~1.9M node-epochs/s) read ~0.013.
	{"scale/fixed-100000", "scale/fixed-5000", 0.40},
	// Activity gating: runs read 1.34-2.37; with gating silently off the
	// gated rung runs the naive path and the ratio falls to ~1.0.
	{"scale/fixed-1000", "scale/naive-1000", 1.20},
}

// compare gates a candidate measurement against a baseline file on the
// memory axes and, within the candidate, on ratioFloors. candPath ""
// means measure a fresh candidate now, at the baseline's own scale, so
// the two sides always simulate the same work.
func compare(basePath, candPath string, tolerance float64, iters int) error {
	if tolerance <= 0 || tolerance >= 1 {
		return fmt.Errorf("-tolerance %v outside (0,1)", tolerance)
	}
	base, err := loadFile(basePath)
	if err != nil {
		return err
	}
	var cand []Entry
	candName, candQuick := candPath, base.Quick
	if candPath != "" {
		cf, err := loadFile(candPath)
		if err != nil {
			return err
		}
		cand, candQuick = cf.Benchmarks, cf.Quick
	} else {
		candName = "fresh run"
		fmt.Fprintf(os.Stderr, "measuring candidate at baseline scale (quick=%v)\n", base.Quick)
		cand = measureAll(specs(base.Quick), iters)
	}
	byName := map[string]Entry{}
	for _, e := range cand {
		byName[e.Name] = e
	}

	fmt.Printf("bench gate: candidate (%s) vs baseline %s (rev %s), bytes/node tolerance %.0f%%\n",
		candName, basePath, base.Rev, tolerance*100)
	// A gating rung that vanished from the candidate is a failure, not a
	// skip: a renamed or dropped rung must come with a regenerated
	// baseline and ratio table, or the gate silently loses coverage.
	var failed []string
	compared := 0
	for _, b := range base.Benchmarks {
		c, ok := byName[b.Name]
		switch {
		case !ok:
			fmt.Printf("  %-24s MISSING from candidate\n", b.Name)
			failed = append(failed, b.Name+" missing in the candidate")
		case c.Nodes != b.Nodes || c.Epochs != b.Epochs:
			fmt.Printf("  %-24s SKIP (scale %dx%d vs baseline %dx%d)\n",
				b.Name, c.Nodes, c.Epochs, b.Nodes, b.Epochs)
		default:
			compared++
			var bad []string
			if b.BytesPerNode > 0 && c.BytesPerNode > b.BytesPerNode/(1-tolerance) &&
				c.BytesPerNode > b.BytesPerNode+bpnSlackBytes {
				bad = append(bad, "bytes/node")
			}
			if c.Nodes >= bytesPerNodeBudgetMinNodes && c.BytesPerNode > bytesPerNodeBudget {
				bad = append(bad, "budget")
			}
			verdict := "ok"
			if len(bad) > 0 {
				verdict = "REGRESSION(" + strings.Join(bad, "+") + ")"
				failed = append(failed, b.Name+" "+strings.Join(bad, "+"))
			}
			fmt.Printf("  %-24s %-12s %6.0f -> %6.0f B/node   (info: %9.0f -> %9.0f epochs/s)\n",
				b.Name, verdict, b.BytesPerNode, c.BytesPerNode, b.EpochsPerSec, c.EpochsPerSec)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no comparable scale benchmarks between candidate and %s — the gate would be vacuous", basePath)
	}
	held := 0
	for _, r := range ratioFloors {
		label := r.num + " / " + r.den
		n, okN := byName[r.num]
		d, okD := byName[r.den]
		if candQuick {
			// A -quick 100k rung times 5 epochs; the floors hold only at
			// the full-scale horizons they were measured at.
			fmt.Printf("  %s: SKIP (-quick candidate; floors are sized at full scale)\n", label)
			continue
		}
		if !okN || !okD {
			fmt.Printf("  %s: MISSING from candidate\n", label)
			failed = append(failed, label+" ratio: rung missing in the candidate")
			continue
		}
		ratio := n.NodeEpochsPerSec / d.NodeEpochsPerSec
		verdict := "ok"
		if ratio < r.floor {
			verdict = "REGRESSION"
			failed = append(failed, fmt.Sprintf("%s ratio %.3f below floor %.2f", label, ratio, r.floor))
		} else {
			held++
		}
		fmt.Printf("  %s: %s  %.3f node-epochs/s ratio (floor %.2f)\n", label, verdict, ratio, r.floor)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench gate failed vs %s: %s", basePath, strings.Join(failed, "; "))
	}
	fmt.Printf("gate passed: %d rungs within memory bounds, %d of %d ratio floors checked, all held\n", compared, held, len(ratioFloors))
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dirqbench: ")

	quick := flag.Bool("quick", false, "short horizons at every rung, for a smoke pass")
	iters := flag.Int("n", 3, "times to run each benchmark (fastest run is reported)")
	benchRe := flag.String("bench", "", "only run benchmarks matching this regexp")
	rev := flag.String("rev", "auto", "revision tag for the output file (auto = git short hash)")
	out := flag.String("out", "", "output path (default BENCH_<rev>.json)")
	checkPath := flag.String("check", "", "validate an existing bench file and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected benchmarks (combine with -bench to focus on one)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected benchmarks")
	comparePath := flag.String("compare", "", "baseline bench file: gate a candidate (positional arg, or a fresh run) against it")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional bytes/node growth over the baseline for -compare")
	list := flag.Bool("list", false, "list benchmark names and exit")
	flag.Parse()

	if *checkPath != "" {
		if err := check(*checkPath); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *comparePath != "" {
		if *iters < 1 {
			log.Fatal("-n must be >= 1")
		}
		if err := compare(*comparePath, flag.Arg(0), *tolerance, *iters); err != nil {
			log.Fatal(err)
		}
		return
	}

	all := specs(*quick)
	if *list {
		for _, s := range all {
			fmt.Println(s.name)
		}
		return
	}
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			log.Fatalf("bad -bench regexp: %v", err)
		}
		var kept []spec
		for _, s := range all {
			if re.MatchString(s.name) {
				kept = append(kept, s)
			}
		}
		all = kept
	}
	if len(all) == 0 {
		log.Fatal("no benchmarks selected")
	}
	if *iters < 1 {
		log.Fatal("-n must be >= 1")
	}

	if *rev == "auto" {
		*rev = detectRev()
	}
	var cpuFile *os.File
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
		cpuFile = pf
	}

	f := File{
		Schema:        SchemaID,
		Rev:           *rev,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		MemTotalBytes: memTotalBytes(),
		Quick:         *quick,
		Iterations:    *iters,
	}

	f.Benchmarks = measureAll(all, *iters)

	// Flush the profiles before any of the exit paths below can fire:
	// log.Fatal calls os.Exit, which would skip deferred cleanup and leave
	// a truncated, unusable CPU profile after a fully-measured run.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		if mf, err := os.Create(*memprofile); err != nil {
			log.Printf("heap profile: %v", err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				log.Printf("heap profile: %v", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", *memprofile)
			}
			mf.Close()
		}
	}

	if err := f.Validate(); err != nil {
		log.Fatalf("refusing to write invalid output: %v", err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", f.Rev)
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
