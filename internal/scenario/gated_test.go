package scenario

import (
	"encoding/json"
	"testing"
)

// gatedVsNaive runs the same configuration with activity gating on and
// off and requires byte-identical Results. The gate skips work only when
// the skipped work is provably unobservable, so any divergence — however
// small — is a bug in the quiescence proof, not tolerable noise. It
// returns each run's field evaluation total (Gen.Evals).
func gatedVsNaive(t *testing.T, cfg Config) (gatedEvals, naiveEvals uint64) {
	t.Helper()
	run := func(cfg Config) (*Result, uint64) {
		r, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Run(), r.Gen.Evals()
	}
	gated, gatedEvals := run(cfg)
	cfg.DisableActivityGating = true
	naive, naiveEvals := run(cfg)
	// The knob itself is part of Config (inside Result); blank it so the
	// comparison covers everything else.
	naive.Config.DisableActivityGating = false
	g, err := json.Marshal(gated)
	if err != nil {
		t.Fatal(err)
	}
	n, err := json.Marshal(naive)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(n) {
		t.Fatalf("gated run diverged from naive run\ngated: %.300s\nnaive: %.300s", g, n)
	}
	return gatedEvals, naiveEvals
}

// TestGatedNaiveEquivalencePaperScale pins gated == naive at the paper's
// 50-node scale for every threshold mode, including the flooding baseline
// and a node-death (energy) run. Under ATC every node takes the exact
// ungated path, so the gated loop's batched evaluation must also read
// every mounted pair every epoch, exactly as often as the naive loop's
// lazy reads do.
func TestGatedNaiveEquivalencePaperScale(t *testing.T) {
	base := Default()
	base.Epochs = 1200

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"fixed", func(c *Config) {}},
		{"atc", func(c *Config) { c.Mode = ATC }},
		{"static", func(c *Config) { c.Mode = StaticIndex }},
		{"flood", func(c *Config) { c.DisseminateByFlooding = true }},
		{"hetero-loss", func(c *Config) { c.Heterogeneous = true; c.PacketLoss = 0.05 }},
		{"energy-deaths", func(c *Config) { c.EnergyCapacity = 1500 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			gated, naive := gatedVsNaive(t, cfg)
			if cfg.Mode == ATC && (gated != naive || gated == 0) {
				t.Fatalf("Evals() gated %d, naive %d", gated, naive)
			}
		})
	}
}

// TestGatedNaiveEquivalenceLargeN is the scale-frontier guard: at 1000
// nodes the gated loop must still reproduce the naive loop bit for bit.
func TestGatedNaiveEquivalenceLargeN(t *testing.T) {
	cfg := ScaleDefault(1000)
	cfg.Epochs = 250
	gatedVsNaive(t, cfg)
}

// TestGatedNaiveEquivalenceGrid is the same guard on a field wide enough
// for the generator's plume-motion grid (ScaleDefault(4000) spans 894 m;
// smaller scale defaults have none): with each plume's motion charged only
// to the cells near it, the gated loop evaluates about a tenth of what it
// did with one bound for every node, and must still reproduce the naive
// loop bit for bit. The evaluation ratio shows the grid is on.
func TestGatedNaiveEquivalenceGrid(t *testing.T) {
	cfg := ScaleDefault(4000)
	cfg.Epochs = 400
	gated, naive := gatedVsNaive(t, cfg)
	// With one bound for every node (c822a65) the gated loop made
	// 1 208 177 evaluations here, a fifth of the naive loop's.
	if gated*20 > naive {
		t.Fatalf("gated loop evaluated %d pairs of the naive loop's %d", gated, naive)
	}
}

// TestScaleDefaultBuilds checks the stretched configurations actually
// deploy (connected placement, depth cap adequate) across the bench sizes.
func TestScaleDefaultBuilds(t *testing.T) {
	for _, n := range []int{50, 250, 1000} {
		cfg := ScaleDefault(n)
		cfg.Epochs = 1
		r, err := Build(cfg)
		if err != nil {
			t.Fatalf("ScaleDefault(%d): %v", n, err)
		}
		if r.Tree.Len() != n {
			t.Fatalf("ScaleDefault(%d): tree holds %d nodes", n, r.Tree.Len())
		}
	}
}
