package scenario

import (
	"testing"

	"repro/internal/flood"
	"repro/internal/sensordata"
	"repro/internal/topology"
)

// scriptedDrive is a Dynamics that steps one epoch at a time and calls
// each before every step.
type scriptedDrive func(r *Runner)

func (d scriptedDrive) Drive(r *Runner) {
	for !r.Done() {
		d(r)
		r.Step(1)
	}
}

// TestFloodBaselineCacheMatchesFreshBFS checks the cached flooding
// baseline against a fresh whole-graph BFS at every query of a run that
// kills nodes and brings them back: each Inject's flood cost must equal
// what a new BFS over the current liveness flags gives.
func TestFloodBaselineCacheMatchesFreshBFS(t *testing.T) {
	cfg := Default()
	cfg.Epochs = 1500
	cfg.DisableWorkload = true
	var victims []topology.NodeID
	var mounted []sensordata.TypeSet
	var fresh flood.Scratch
	costs := map[int64]bool{}
	queries := 0
	cfg.Script = scriptedDrive(func(r *Runner) {
		now := r.Epoch()
		switch now {
		case 200, 400, 600:
			// A relay of the current tree: its death cuts flood links.
			for _, id := range r.Tree.Nodes() {
				if id != topology.Root && len(r.Tree.Children(id)) > 0 && r.Channel.Alive(id) {
					victims = append(victims, id)
					mounted = append(mounted, r.Mounted[id])
					r.Proto.KillNode(id)
					break
				}
			}
		case 900, 1100:
			k := 0
			if now == 1100 {
				k = 2
			}
			if err := r.Proto.JoinNode(victims[k], mounted[k]); err != nil {
				t.Logf("epoch %d: rejoin of %d: %v", now, victims[k], err)
			}
		}
		if now < 100 || now%10 != 0 {
			return
		}
		q, truth := r.NextWorkloadQuery()
		_, got := r.Inject(q, truth)
		want := fresh.CostOnly(r.Graph, r.Channel.Alive, topology.Root).Total()
		if got != want {
			t.Fatalf("epoch %d: cached flood cost %d, fresh BFS %d", now, got, want)
		}
		costs[got] = true
		queries++
	})
	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if len(victims) != 3 {
		t.Fatalf("killed %d relays, want 3", len(victims))
	}
	if len(costs) < 3 {
		t.Fatalf("only %d distinct flood costs over %d queries: the kills and joins never moved the baseline", len(costs), queries)
	}
}
