package exp

import (
	"context"
	"fmt"

	"fedsu/internal/fl"
	"fedsu/internal/netem"
	"fedsu/internal/trace"
)

// AsyncResult compares synchronous barrier rounds against buffered-async
// rounds (and async plus event-triggered uploads) on the same heterogeneous
// device population: time-to-accuracy under straggler-heavy compute,
// diverse uplinks, and transient dropout. Its cells are labelled by mode:
// sync, async, async-event.
type AsyncResult struct {
	// Workload is the compared workload.
	Workload Workload
	Grid
}

// HeterogeneousNetem returns the straggler-heavy cluster profile the async
// comparison runs under: wide compute spread, lognormal link diversity,
// and transient dropout — the regime where a synchronous quorum idles the
// fast clients on the slow tail every round.
func HeterogeneousNetem(clients int, seed int64) netem.Config {
	c := netem.DefaultConfig(clients)
	c.ComputeHeterogeneity = 0.6
	c.BandwidthSigma = 0.5
	c.RoundJitter = 0.1
	c.DropoutProb = 0.05
	c.Seed = seed
	return c
}

// asyncK is the default async buffer size, of the comparison and of -k:
// half the fleet. The server applies a new global once the fastest half
// has reported, so the slow tail contributes (staleness-weighted) without
// gating anybody.
func asyncK(clients int) int { return max(clients/2, 1) }

// RunAsyncCompare runs the sync-vs-async time-to-accuracy comparison for
// one workload through the grid scheduler. All arms run FedAvg (async
// folding requires a full-vector strategy) on the identical heterogeneous
// netem population; the async arms get the same total contribution budget
// as the sync arm — cfg.Rounds × Clients client-arrivals, i.e.
// Rounds·Clients/K global applications — so neither side sees more
// training work, only a different aggregation discipline.
func RunAsyncCompare(ctx context.Context, h Harness, cfg Config, w Workload) (*AsyncResult, error) {
	if cfg.Clients < 2 {
		return nil, fmt.Errorf("exp: async comparison needs >= 2 clients, got %d", cfg.Clients)
	}
	prof := HeterogeneousNetem(cfg.Clients, cfg.Seed)
	k := asyncK(cfg.Clients)
	applies := cfg.Rounds * cfg.Clients / k

	syncCfg := cfg
	syncCfg.Netem = prof

	asyncCfg := syncCfg
	asyncCfg.Rounds = applies
	asyncCfg.Async = fl.AsyncConfig{K: k, MaxStaleness: 8, StalenessWeight: 0.5}

	eventCfg := asyncCfg
	// The event threshold gates negligible uploads; calibrated loosely to
	// the workload's update magnitude so early (large) updates pass and
	// late (converged) ones abstain.
	eventCfg.EventThreshold = 0.05

	g, err := runGrid(ctx, h, []GridRun{
		{Cfg: syncCfg.named(w, "fedavg"), Label: "sync"},
		{Cfg: asyncCfg.named(w, "fedavg"), Label: "async"},
		{Cfg: eventCfg.named(w, "fedavg"), Label: "async-event"},
	})
	if err != nil {
		return nil, err
	}
	return &AsyncResult{Workload: w, Grid: g}, nil
}

// Report is the comparison table — time to the workload target (full-run
// time when unreached), final accuracy, total encoded uplink gigabytes
// (emulated model scale) and contributions dropped for exceeding the
// staleness bound, per mode — and the modes' accuracy curves.
func (r *AsyncResult) Report() Report {
	t := trace.NewTable(fmt.Sprintf("Async rounds: sync vs buffered-async (%s)", r.Workload.Name),
		"Mode", "Time to Target (s)", "Reached", "Final Acc", "Uplink GB", "Stale Drops")
	var acc []*trace.Series
	for i, c := range r.Cells {
		run := r.Runs[i]
		secs, _, reached := run.TimeToAccuracy(r.Workload.TargetAccuracy)
		up, _ := run.Traffic()
		drops := 0
		for _, st := range run.Stats {
			drops += st.StaleDrops
		}
		t.AddRow(c.Label,
			fmt.Sprintf("%.0f", secs),
			reached,
			fmt.Sprintf("%.3f", run.FinalAccuracy()),
			fmt.Sprintf("%.2f", float64(up)/1e9),
			drops)
		acc = append(acc, run.AccuracyCurve(c.Label))
	}
	return Report{Tables: []*trace.Table{t}, Figures: []Figure{{
		File: "async_acc_" + r.Workload.Name + ".csv", Title: fmt.Sprintf("Async (%s): sync vs async time-to-accuracy", r.Workload.Name),
		Series: acc,
	}}}
}
