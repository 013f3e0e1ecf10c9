package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validFile returns a minimal File that passes Validate, for mutation.
func validFile() File {
	return File{
		Schema:     SchemaID,
		Rev:        "test",
		Timestamp:  "2026-01-02T03:04:05Z",
		GoVersion:  "go1.24",
		GOOS:       "linux",
		GOARCH:     "amd64",
		CPUs:       4,
		Iterations: 3,
		Benchmarks: []Entry{
			{Name: "scale/fixed-1000", Group: "scale", NsPerOp: 2e9, Runs: 3,
				Nodes: 1000, Epochs: 1000, EpochsPerSec: 500, NodeEpochsPerSec: 5e5},
			{Name: "scale/fixed-5000", Group: "scale", NsPerOp: 2.5e9, Runs: 3,
				Nodes: 5000, Epochs: 1000, EpochsPerSec: 400, NodeEpochsPerSec: 2e6},
		},
	}
}

// TestValidateTable pins the exact rejection text of every BENCH_*.json
// schema rule, so `dirqbench -check` failures stay actionable.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
		want   string // exact Validate error; "" means valid
	}{
		{"valid", func(f *File) {}, ""},
		{"wrong schema", func(f *File) { f.Schema = "dirq/bench/v0" },
			`schema "dirq/bench/v0", want "dirq/bench/v1"`},
		{"empty rev", func(f *File) { f.Rev = "" },
			`empty rev`},
		{"bad timestamp", func(f *File) { f.Timestamp = "yesterday" },
			`bad timestamp "yesterday": parsing time "yesterday" as "2006-01-02T15:04:05Z07:00": cannot parse "yesterday" as "2006"`},
		{"zero iterations", func(f *File) { f.Iterations = 0 },
			`iterations 0 < 1`},
		{"no benchmarks", func(f *File) { f.Benchmarks = nil },
			`no benchmarks`},
		{"empty name", func(f *File) { f.Benchmarks[0].Name = "" },
			`benchmark 0: empty name`},
		{"duplicate name", func(f *File) { f.Benchmarks[1].Name = f.Benchmarks[0].Name },
			`benchmark 1: duplicate name "scale/fixed-1000"`},
		// The workload, qps and micro groups are gone; a file that still
		// carries them is refused.
		{"unknown group", func(f *File) { f.Benchmarks[1].Group = "workload" },
			`benchmark "scale/fixed-5000": unknown group "workload"`},
		{"non-positive ns/op", func(f *File) { f.Benchmarks[0].NsPerOp = 0 },
			`benchmark "scale/fixed-1000": ns_per_op 0 <= 0`},
		{"negative allocs", func(f *File) { f.Benchmarks[0].AllocsPerOp = -1 },
			`benchmark "scale/fixed-1000": negative allocation stats`},
		{"scale without throughput", func(f *File) { f.Benchmarks[0].EpochsPerSec = 0 },
			`benchmark "scale/fixed-1000": missing throughput`},
		{"scale without node-epochs throughput", func(f *File) { f.Benchmarks[1].NodeEpochsPerSec = 0 },
			`benchmark "scale/fixed-5000": missing throughput`},
		{"scale without nodes", func(f *File) { f.Benchmarks[0].Nodes = 0 },
			`benchmark "scale/fixed-1000": scale bench without nodes/epochs`},
		{"negative setup stats", func(f *File) { f.Benchmarks[0].SetupNsPerOp = -1 },
			`benchmark "scale/fixed-1000": negative setup stats`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFile()
			tc.mutate(&f)
			err := f.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid file rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("invalid file accepted")
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("error drifted:\n got %q\nwant %q", err, tc.want)
			}
		})
	}
}

// TestCommittedBaselines: every BENCH_*.json in the repo root must pass
// the same validation CI's `dirqbench -check` applies.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := loadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(path); err != nil {
				t.Fatalf("-check failed: %v", err)
			}
			if len(f.Benchmarks) == 0 {
				t.Fatal("baseline has no benchmarks")
			}
		})
	}
}

// TestCheckRejectsMalformed: -check fails loudly on junk input.
func TestCheckRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, wantSub string
	}{
		{"not-json", "not json at all", "not valid JSON"},
		{"wrong-schema", `{"schema":"other/v9"}`, `schema "other/v9", want "dirq/bench/v1"`},
		{"empty-object", `{}`, `schema ""`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			err := check(path)
			if err == nil {
				t.Fatal("-check accepted malformed file")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if err := check(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("-check accepted a missing file")
	}
}

// TestCompareScaleGate: the -compare axes. Memory gates against the
// baseline — the relative bytes-per-node ceiling (with its absolute slack
// for small heaps) and the hard budget at large N, which must fire even
// when the baseline predates bytes_per_node. Speed gates on the candidate
// alone through ratioFloors, so a uniformly slow host passes while a
// step change inside one run fails.
func TestCompareScaleGate(t *testing.T) {
	dir := t.TempDir()
	// The five rungs the gate reads. Index 0 is a small rung (relative
	// memory axis only) and index 1 a budget-eligible one; the ratios
	// read 1.67 (gating) and 0.80 (locality).
	mkFile := func(smallBpn, largeBpn float64) File {
		f := validFile()
		rung := func(name string, nodes int, epochs int64, eps, bpn float64) Entry {
			return Entry{Name: name, Group: "scale", NsPerOp: float64(epochs) * 1e9 / eps, Runs: 1,
				Nodes: nodes, Epochs: epochs, EpochsPerSec: eps, NodeEpochsPerSec: eps * float64(nodes),
				SetupNsPerOp: 5e6, BytesPerNode: bpn}
		}
		f.Benchmarks = []Entry{
			rung("scale/fixed-1000", 1000, 1000, 500, smallBpn),
			rung("scale/fixed-25000", 25000, 500, 80, largeBpn),
			rung("scale/naive-1000", 1000, 1000, 300, smallBpn),
			rung("scale/fixed-5000", 5000, 1000, 400, largeBpn),
			rung("scale/fixed-100000", 100000, 600, 16, largeBpn),
		}
		return f
	}
	write := func(name string, f File) string {
		t.Helper()
		b, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	drop := func(f *File, name string) {
		kept := f.Benchmarks[:0]
		for _, e := range f.Benchmarks {
			if e.Name != name {
				kept = append(kept, e)
			}
		}
		f.Benchmarks = kept
	}
	base := write("base", mkFile(2800, 2820))
	baseNoBpn := write("base-nobpn", mkFile(0, 0))     // pre-pr10 baseline shape
	baseSlack := write("base-slack", mkFile(100, 100)) // tiny heaps: ratio is noise
	noNaive := mkFile(2800, 2820)
	drop(&noNaive, "scale/naive-1000")
	baseNoNaive := write("base-nonaive", noNaive)

	cases := []struct {
		name    string
		base    string
		mutate  func(*File)
		wantSub string // substring of the compare error; "" means gate passes
	}{
		{"identical", base, func(f *File) {}, ""},
		{"slow host passes", base, func(f *File) {
			// Every rung at half speed: a slower runner, not a regression.
			for i := range f.Benchmarks {
				f.Benchmarks[i].NsPerOp *= 2
				f.Benchmarks[i].EpochsPerSec /= 2
				f.Benchmarks[i].NodeEpochsPerSec /= 2
			}
		}, ""},
		{"gating off fails", base, func(f *File) {
			f.Benchmarks[0].EpochsPerSec = f.Benchmarks[2].EpochsPerSec
			f.Benchmarks[0].NodeEpochsPerSec = f.Benchmarks[2].NodeEpochsPerSec
		}, "scale/fixed-1000 / scale/naive-1000 ratio 1.000 below floor"},
		{"large-N cliff fails", base, func(f *File) {
			f.Benchmarks[4].NodeEpochsPerSec = 0.013 * f.Benchmarks[3].NodeEpochsPerSec
			f.Benchmarks[4].EpochsPerSec = f.Benchmarks[4].NodeEpochsPerSec / 100000
		}, "scale/fixed-100000 / scale/fixed-5000 ratio 0.013 below floor"},
		{"ratio rung missing", baseNoNaive, func(f *File) { drop(f, "scale/naive-1000") },
			"scale/fixed-1000 / scale/naive-1000 ratio: rung missing in the candidate"},
		{"baseline rung missing", base, func(f *File) { drop(f, "scale/fixed-25000") },
			"scale/fixed-25000 missing in the candidate"},
		{"quick candidate skips ratio floors", base, func(f *File) {
			// -quick horizons are too short for the floors, so only the
			// memory axes gate.
			f.Quick = true
			f.Benchmarks[0].NodeEpochsPerSec = f.Benchmarks[2].NodeEpochsPerSec
		}, ""},
		{"bytes-per-node regression breach", base, func(f *File) { f.Benchmarks[0].BytesPerNode = 4090 },
			"scale/fixed-1000 bytes/node"},
		{"bytes-per-node within absolute slack", baseSlack, func(f *File) {
			// Ratio alone would breach (2× the baseline) but the absolute
			// delta is under the slack — small-heap jitter must not gate.
			for i := range f.Benchmarks {
				f.Benchmarks[i].BytesPerNode = 200
			}
		}, ""},
		{"hard budget breach at large N", base, func(f *File) { f.Benchmarks[1].BytesPerNode = 4200 },
			"scale/fixed-25000 bytes/node+budget"},
		{"budget fires without baseline bytes", baseNoBpn, func(f *File) { f.Benchmarks[1].BytesPerNode = 4200 },
			"scale/fixed-25000 budget"},
		{"no baseline bytes, candidate under budget", baseNoBpn, func(f *File) {}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := mkFile(2800, 2820)
			tc.mutate(&f)
			cand := write("cand-"+strings.ReplaceAll(tc.name, " ", "-"), f)
			err := compare(tc.base, cand, 0.30, 1)
			switch {
			case tc.wantSub == "" && err != nil:
				t.Fatalf("gate failed on a healthy candidate: %v", err)
			case tc.wantSub != "" && err == nil:
				t.Fatal("gate passed a regressed candidate")
			case tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub):
				t.Fatalf("gate error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzFileValidate feeds bench file contents through decodeFile, the
// decode and File.Validate that loadFile runs. It may not panic, and a
// file it accepts must re-marshal to bytes that decode and validate to an
// equal file. The corpus is seeded from the committed baselines. Run it
// with
//
//	go test -run '^$' -fuzz '^FuzzFileValidate$' -fuzztime 20s -fuzzminimizetime 100x ./cmd/dirqbench/
//
// The seeds are about 10 KB each, and minimizing each new input that
// widens coverage under the default 60 s budget would take the whole run;
// 100 executions per minimization keeps it fuzzing.
func FuzzFileValidate(f *testing.F) {
	for _, name := range []string{"BENCH_pr10.json", "BENCH_pr22.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeFile(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("re-marshaling %+v: %v", b, err)
		}
		b2, err := decodeFile(enc)
		if err != nil {
			t.Fatalf("re-marshaled file %s: %v", enc, err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("re-marshaled file %s decodes to %+v, want %+v", enc, b2, b)
		}
	})
}
