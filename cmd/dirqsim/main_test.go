package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden -json output")

var buildOnce struct {
	sync.Once
	bin string
	err error
}

// buildBinary compiles dirqsim once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dirqsim-test")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "dirqsim")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = err
			os.RemoveAll(dir)
			return
		}
		_ = out
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("building dirqsim: %v", buildOnce.err)
	}
	return buildOnce.bin
}

// goldenArgs is the pinned CLI invocation behind the golden file.
var goldenArgs = []string{"-nodes", "20", "-epochs", "300", "-seed", "5", "-json"}

// TestJSONSchema contract-tests `dirqsim -json`: the emitted document
// must carry every schema key and internally consistent values, so
// downstream tooling can rely on the field set rather than smoke-grep.
func TestJSONSchema(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, goldenArgs...).Output()
	if err != nil {
		t.Fatalf("dirqsim -json: %v", err)
	}

	// The emitted document decodes into the writer's own struct…
	var s jsonSummary
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	switch {
	case s.Nodes != 20:
		t.Errorf("nodes = %d, want 20", s.Nodes)
	case s.Epochs != 300:
		t.Errorf("epochs = %d, want 300", s.Epochs)
	case s.Seed != 5:
		t.Errorf("seed = %d, want 5", s.Seed)
	case s.Mode != "fixed":
		t.Errorf("mode = %q, want fixed", s.Mode)
	case s.TreeDepth <= 0 || s.TreeInternal <= 0:
		t.Errorf("tree shape missing: depth %d internal %d", s.TreeDepth, s.TreeInternal)
	case s.QueriesInjected <= 0:
		t.Errorf("no queries injected")
	case s.FloodCost <= 0 || s.CostFraction <= 0:
		t.Errorf("cost fields missing: flood %d fraction %v", s.FloodCost, s.CostFraction)
	case s.PctReceived <= 0 || s.PctReceived > 100:
		t.Errorf("pct_received %v outside (0,100]", s.PctReceived)
	}

	// …and carries every documented key by name (omitempty must not eat a
	// field the contract promises).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"nodes", "epochs", "seed", "mode", "coverage", "tree_depth",
		"tree_internal", "queries_injected", "pct_should", "pct_received",
		"pct_sources", "mean_overshoot_pct", "query_cost", "update_cost",
		"update_messages", "estimate_cost", "flood_cost", "cost_fraction",
		"umax_per_hour",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("emitted JSON misses contract key %q", key)
		}
	}
}

// TestJSONGolden pins the exact bytes of the -json output for one fixed
// invocation. Regenerate with `go test ./cmd/dirqsim -run Golden -update`
// after an intentional output change. Byte comparison runs on amd64 and
// 386, where the compiler never fuses a multiply and an add; on other
// architectures fusing can legally alter float results (the schema test
// above still covers them).
func TestJSONGolden(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, goldenArgs...).Output()
	if err != nil {
		t.Fatalf("dirqsim -json: %v", err)
	}
	golden := filepath.Join("testdata", "golden_json.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("byte-exact golden comparison pinned to amd64 and 386 (running on %s)", runtime.GOARCH)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("-json output drifted from golden (rerun with -update if intentional)\n got: %s\nwant: %s", out, want)
	}
}

// TestJSONScriptReport: -script runs embed the dynamics report.
func TestJSONScriptReport(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-nodes", "20", "-epochs", "3000", "-seed", "5",
		"-script", filepath.Join("..", "..", "scripts", "chaos.json"), "-json").Output()
	if err != nil {
		t.Fatalf("dirqsim -script -json: %v", err)
	}
	var s jsonSummary
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if s.Script == nil {
		t.Fatal("script report missing from -json output")
	}
	if s.Script.Name != "serving-chaos" {
		t.Errorf("script name %q, want serving-chaos", s.Script.Name)
	}
	if len(s.Script.Events) == 0 {
		t.Error("script report has no applied events")
	}
}
