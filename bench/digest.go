package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"repro/internal/scenario"
	"repro/internal/script"
	"repro/internal/topology"
)

// digestsJSON holds the expected digest of each simulation workload for
// seeds 1 and 2, keyed by workload ("<name>/smoke" for smoke runs) and
// then by seed.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// committedDigest returns the expected digest of a simulation workload
// for a seed, if one is committed.
func committedDigest(name string, smoke bool, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("testdata/digests.json: %v", err)) // embedded at build time
	}
	if smoke {
		name += "/smoke"
	}
	d, ok := all[name][strconv.FormatUint(seed, 10)]
	return d, ok
}

// checkDigest fails the outcome if its digest differs from a committed one.
func checkDigest(name string, o runOpts, oc *outcome) {
	if oc.digest == "" {
		return
	}
	if want, ok := committedDigest(name, o.smoke, o.seed); ok && want != oc.digest {
		oc.fail("digest %s differs from the committed %s for seed %d", oc.digest, want, o.seed)
	}
}

// invariants checks what any correct run satisfies, whatever its seed.
func invariants(res *scenario.Result) string {
	if !(res.CostFraction > 0) {
		return fmt.Sprintf("cost fraction %v not positive", res.CostFraction)
	}
	if res.QueriesInjected == 0 {
		return "no queries injected"
	}
	s := res.Summary
	for _, p := range []float64{s.PctShould, s.PctReceived, s.PctSources, s.PctShouldNot, s.MeanOvershoot} {
		if !(p >= 0 && p <= 100) {
			return fmt.Sprintf("accuracy percentage %v outside [0, 100]", p)
		}
	}
	return ""
}

// resultDigest hashes a run's simulated statistics: costs, per-query
// accuracy and its summary, the per-bucket series, the EHr series, the
// final tree and, for a script run, its report. Floats are written with
// strconv's shortest 'g' form: exact, and able to carry the +Inf that
// relative overshoot takes when a query reaches nodes but should reach
// none (JSON cannot).
func resultDigest(res *scenario.Result, report *script.Report, tree *topology.Tree, n int) string {
	d := digester{h: sha256.New()}
	d.label("cost")
	d.ints(res.QueryCost.Tx, res.QueryCost.Rx, res.UpdateCost.Tx, res.UpdateCost.Rx,
		res.EstimateCost.Tx, res.EstimateCost.Rx, res.FloodCost)
	d.floats(res.CostFraction, res.UmaxPerHour)
	d.label("summary")
	s := res.Summary
	d.ints(int64(s.Queries), int64(res.QueriesInjected))
	d.floats(s.PctShould, s.PctReceived, s.PctSources, s.PctShouldNot, s.MeanOvershoot)
	d.label("accuracies")
	for _, a := range res.Accuracies {
		d.ints(a.QueryID, int64(a.NumShould), int64(a.NumReceived), int64(a.NumSources), int64(a.NumWrong), int64(a.NumMissed))
		d.floats(a.OvershootPct, a.RelOvershootPct)
	}
	d.label("updates")
	d.floats(res.UpdateTxPerBucket...)
	d.label("overshoot")
	for _, b := range res.OvershootPerBucket {
		d.ints(b.Start, b.Count)
		d.floats(b.Sum)
	}
	d.label("delta")
	d.floats(res.DeltaPctPerBucket...)
	d.label("ehr")
	for _, e := range res.EHrSeries {
		d.ints(int64(e))
	}
	d.label("energy")
	d.ints(res.FirstDeathEpoch, int64(res.DeadAtEnd))
	d.label("tree")
	d.ints(int64(res.TreeDepth), int64(res.TreeInternal))
	for id := range n {
		p, ok := tree.Parent(topology.NodeID(id))
		if !ok {
			p = -1
		}
		d.ints(int64(p))
	}
	if report != nil {
		d.label("script")
		data, err := json.Marshal(report)
		if err != nil {
			d.label("unencodable report: " + err.Error())
		}
		d.h.Write(data)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// digester writes labelled number lists into a hash.
type digester struct {
	h   hash.Hash
	buf []byte
}

func (d *digester) label(s string) { d.h.Write([]byte("\n" + s + ":")) }

func (d *digester) ints(vs ...int64) {
	for _, v := range vs {
		d.buf = strconv.AppendInt(append(d.buf[:0], ' '), v, 10)
		d.h.Write(d.buf)
	}
}

func (d *digester) floats(vs ...float64) {
	for _, v := range vs {
		d.buf = strconv.AppendFloat(append(d.buf[:0], ' '), v, 'g', -1, 64)
		d.h.Write(d.buf)
	}
}
