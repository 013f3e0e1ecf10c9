package diffuzz

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/script"
)

// TestGenerateDeterministic: the generator is a pure function of the seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a, b := GenerateSized(seed, 0), GenerateSized(seed, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateSized not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenerateCoverage: over a modest seed range the generator exercises
// every controller mode and every script op at least once.
func TestGenerateCoverage(t *testing.T) {
	modes := map[scenario.ThresholdMode]bool{}
	ops := map[script.Op]bool{}
	for seed := uint64(0); seed < 60; seed++ {
		c := GenerateSized(seed, 0)
		modes[c.Cfg.Mode] = true
		for _, e := range c.Script.Events {
			ops[e.Op] = true
		}
	}
	if len(modes) < 3 {
		t.Errorf("only %d controller modes generated in 60 seeds", len(modes))
	}
	if len(ops) < 7 {
		t.Errorf("only %d of 7 script ops generated in 60 seeds: %v", len(ops), ops)
	}
}

// TestFuzzSmoke runs a small all-oracle campaign; the repository's
// equivalence invariants must hold on every generated case.
func TestFuzzSmoke(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	sum, err := Fuzz(Options{Seeds: seeds, Shrink: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cases != seeds {
		t.Fatalf("ran %d cases, want %d", sum.Cases, seeds)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d oracle %s diverged: %s", f.Seed, f.Oracle, f.Detail)
	}
}

// TestInjectedDivergence is the harness's own acceptance test: silently
// consuming one RNG draw in the second determinism run must be caught and
// shrunk to a near-empty repro (≤3 events), proving both the oracle's
// sensitivity and the shrinker's reduction.
func TestInjectedDivergence(t *testing.T) {
	dir := t.TempDir()
	perturb := func(r *scenario.Runner) { r.NextWorkloadQuery() }
	sum, err := Fuzz(Options{
		SeedBase:  3, // a seed whose generated case has a non-empty timeline
		Seeds:     1,
		Oracles:   []string{OracleDeterminism},
		Shrink:    true,
		CorpusDir: dir,
		Perturb:   perturb,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 1 {
		t.Fatalf("injected divergence not caught: %d failures", len(sum.Failures))
	}
	f := sum.Failures[0]
	if got := len(f.Minimized.Script.Events); got > 3 {
		t.Errorf("shrink left %d events, want <= 3", got)
	}
	if f.Minimized.Cfg.Epochs > f.Case.Cfg.Epochs {
		t.Errorf("shrink grew the horizon: %d -> %d", f.Case.Cfg.Epochs, f.Minimized.Cfg.Epochs)
	}

	// The minimized case must still reproduce under the same perturbation…
	var d *Divergence
	if err := RunOracle(OracleDeterminism, f.Minimized, perturb); !errors.As(err, &d) {
		t.Fatalf("minimized case does not reproduce: %v", err)
	}
	// …and its repro file must round-trip runnable.
	if f.ReproPath == "" {
		t.Fatal("no repro written")
	}
	r, err := LoadRepro(f.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOracle(r.Oracle, r.Case, perturb); !errors.As(err, &d) {
		t.Fatalf("loaded repro does not reproduce: %v", err)
	}
	// Without the perturbation the minimized case is clean — the find was
	// the injection, not a real engine bug.
	if err := RunOracle(OracleDeterminism, f.Minimized, nil); err != nil {
		t.Fatalf("minimized case fails without the perturbation: %v", err)
	}
}

// TestCorpusReplay pins every committed repro: each must load, validate,
// and pass its recorded oracle (they are committed fixed — a regression
// that re-breaks one fails here first).
func TestCorpusReplay(t *testing.T) {
	repros, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("committed corpus is empty; expected pinned repro files under testdata/corpus")
	}
	for _, r := range repros {
		t.Run(ReproName(r.Seed, r.Oracle), func(t *testing.T) {
			if err := RunOracle(r.Oracle, r.Case, nil); err != nil {
				t.Errorf("pinned repro regressed: %v", err)
			}
		})
	}
}

// TestReproRoundTrip: write → load preserves the case exactly.
func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := GenerateSized(7, 0)
	path, err := WriteRepro(dir, Repro{Oracle: OracleGating, Note: "round-trip", Case: c})
	if err != nil {
		t.Fatal(err)
	}
	r, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Case, c) {
		t.Fatalf("repro round-trip mutated the case:\nwrote %+v\nread  %+v", c, r.Case)
	}
}

// TestUnknownOracle: bad oracle names are rejected up front.
func TestUnknownOracle(t *testing.T) {
	if _, err := Fuzz(Options{Seeds: 1, Oracles: []string{"nope"}}); err == nil {
		t.Fatal("unknown oracle accepted")
	}
}
