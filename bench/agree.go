package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads the untraced records of a -out file.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// agree compares two sets of runs of the same commit: for every workload
// and end-to-end metric, the medians (over the runs in each set) may
// differ by at most the metric's bound, and neither set may have a failed
// operation. It prints one row per pair and returns the exit status.
func agree(w io.Writer, files []string, benchPath string) int {
	if len(files) != 2 {
		fmt.Fprintln(w, "usage: bench -agree A.jsonl B.jsonl")
		return 2
	}
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	var sets [2][]record
	for i, path := range files {
		if sets[i], err = loadRecords(path); err != nil {
			fmt.Fprintln(w, err)
			return 2
		}
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-21s %9s %12s %12s %12s %12s %12s %12s %9s %7s\n",
		"workload", "metric", "runs", "A median", "A p25", "A p75", "B median", "B p25", "B p75", "diff", "bound")
	for _, wl := range bf.Workloads {
		var attempted, failed [2]int
		for i := range sets {
			for _, r := range sets[i] {
				if r.Workload == wl.Name {
					attempted[i] += r.Attempted
					failed[i] += r.Failed
				}
			}
		}
		for _, m := range bf.EndToEnd {
			var s [2]summary
			for i := range sets {
				var xs []float64
				for _, r := range sets[i] {
					if v, found := r.Metrics[m.Name]; found && r.Workload == wl.Name {
						xs = append(xs, v.Value)
					}
				}
				s[i] = summarize(xs)
			}
			diff := (s[1].Median - s[0].Median) / s[0].Median
			verdict := "ok"
			if s[0].N == 0 || s[1].N == 0 || math.IsNaN(diff) || math.Abs(diff) > m.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-21s %3d / %-3d  %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+8.2f%% %6.1f%% %s\n",
				wl.Name, m.Name, s[0].N, s[1].N, s[0].Median, s[0].P25, s[0].P75, s[1].Median, s[1].P25, s[1].P75,
				100*diff, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if failed[0] != 0 || failed[1] != 0 || attempted[0] == 0 || attempted[1] == 0 {
			verdict = "DISAGREE"
			ok = false
		}
		fmt.Fprintf(w, "%-13s %-21s failed %d of %d (A), %d of %d (B) %s\n",
			wl.Name, "failed_ratio", failed[0], attempted[0], failed[1], attempted[1], verdict)
	}
	if !ok {
		return 1
	}
	return 0
}
