package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
)

// telemetryVariants are the configuration corners the inertness proof
// covers: every protocol mode, the lossy/heterogeneous radio, the ungated
// reference engine, energy-limited deaths and predictive sampling.
func telemetryVariants() map[string]Config {
	base := Default()
	base.NumNodes = 30
	base.Epochs = 400
	v := map[string]Config{}
	mk := func(name string, mut func(*Config)) {
		cfg := base
		mut(&cfg)
		v[name] = cfg
	}
	mk("fixed", func(c *Config) {})
	mk("atc", func(c *Config) { c.Mode = ATC })
	mk("flood", func(c *Config) { c.DisseminateByFlooding = true })
	mk("hetero-loss", func(c *Config) { c.Heterogeneous = true; c.PacketLoss = 0.1 })
	mk("naive", func(c *Config) { c.DisableActivityGating = true })
	mk("energy", func(c *Config) { c.EnergyCapacity = 1500 })
	mk("predictive", func(c *Config) { c.PredictiveSampling = true })
	return v
}

// TestTelemetryInert is the zero-drift proof at the scenario layer: a run
// with a registry attached must produce byte-identical results to the
// same run without one. Telemetry only ever writes counters; nothing
// reads back, nothing draws randomness.
func TestTelemetryInert(t *testing.T) {
	for name, cfg := range telemetryVariants() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			off := cfg
			off.Telemetry = nil
			offRes, err := Run(off)
			if err != nil {
				t.Fatal(err)
			}
			on := cfg
			on.Telemetry = telemetry.NewRegistry()
			onRes, err := Run(on)
			if err != nil {
				t.Fatal(err)
			}
			offJSON, err := json.Marshal(offRes)
			if err != nil {
				t.Fatal(err)
			}
			onJSON, err := json.Marshal(onRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(offJSON, onJSON) {
				t.Errorf("results differ with telemetry attached:\noff: %.200s\non:  %.200s",
					offJSON, onJSON)
			}
		})
	}
}

// TestTelemetryCounts sanity-checks that the instrumented run actually
// recorded the work: the layer counters are live, consistent with the
// run's own statistics, and frame kinds partition the frame count.
func TestTelemetryCounts(t *testing.T) {
	cfg := Default()
	cfg.NumNodes = 30
	cfg.Epochs = 400
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]telemetry.SeriesSnapshot{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		if k := s.Labels["kind"]; k != "" {
			key += ":" + k
		}
		vals[key] = s
	}
	count := func(key string) int64 {
		s, ok := vals[key]
		if !ok {
			t.Errorf("metric %s not registered", key)
			return 0
		}
		if s.Kind == telemetry.KindHistogram {
			return s.Count
		}
		return int64(s.Value)
	}

	if got := count("dirq_epochs_total"); got != int64(cfg.Epochs)+1 {
		// Epochs+1: the warmup flush epoch at t=0 also steps the protocol.
		t.Errorf("dirq_epochs_total = %d, want %d", got, cfg.Epochs+1)
	}
	// The protocol, MAC, query and sampling tickers each run once per
	// executed epoch; this configuration has no energy ticker.
	if got, want := count("dirq_engine_ticker_runs_total"), 4*(cfg.Epochs+1); got != want {
		t.Errorf("dirq_engine_ticker_runs_total = %d, want %d", got, want)
	}
	for _, name := range []string{
		"dirq_radio_tx_total",
		"dirq_radio_rx_total",
		"dirq_field_evals_total",
		"dirq_core_active_nodes_total",
	} {
		if count(name) <= 0 {
			t.Errorf("%s = %d, want > 0", name, count(name))
		}
	}
	if count("dirq_core_active_set_size") != int64(cfg.Epochs)+1 {
		t.Errorf("active-set histogram observed %d epochs, want %d",
			count("dirq_core_active_set_size"), cfg.Epochs+1)
	}
	// One frame per executed epoch, each either quiet or silent.
	quiet := count("dirq_lmac_frames_total:quiet")
	silent := count("dirq_lmac_frames_total:silent")
	if quiet+silent != int64(cfg.Epochs)+1 {
		t.Errorf("LMAC frames quiet=%d + silent=%d, want %d", quiet, silent, cfg.Epochs+1)
	}
	if _, ok := vals["dirq_lmac_frames_total:full"]; ok {
		t.Error(`dirq_lmac_frames_total{kind="full"} is registered, but the MAC has one frame path`)
	}
	if sent := count("dirq_core_tuples_sent_total"); sent <= 0 {
		t.Errorf("dirq_core_tuples_sent_total = %d, want > 0", sent)
	}
	// The run's own cost accounting and the radio counter must agree in
	// magnitude: every unit of QueryCost/UpdateCost is a tx or rx.
	if res.QueryCost.Tx+res.UpdateCost.Tx > count("dirq_radio_tx_total") {
		t.Errorf("radio tx counter %d below the run's own tx cost %d",
			count("dirq_radio_tx_total"), res.QueryCost.Tx+res.UpdateCost.Tx)
	}
}

// TestTelemetryLossCounters: with packet loss on, drops are counted and
// rx falls short of what the topology would deliver losslessly.
func TestTelemetryLossCounters(t *testing.T) {
	cfg := Default()
	cfg.NumNodes = 30
	cfg.Epochs = 300
	cfg.PacketLoss = 0.2
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var drops int64
	for _, s := range reg.Snapshot() {
		if s.Name == "dirq_radio_drops_total" {
			drops = int64(s.Value)
		}
	}
	if drops <= 0 {
		t.Errorf("dirq_radio_drops_total = %d with 20%% loss, want > 0", drops)
	}
}
