package exp

import (
	"context"
	"fmt"
	"io"

	"fedsu/internal/fl"
	"fedsu/internal/netem"
	"fedsu/internal/trace"
)

// AsyncModes returns the arm labels of the sync-vs-async comparison, in
// presentation order.
func AsyncModes() []string { return []string{"sync", "async", "async-event"} }

// AsyncResult compares synchronous barrier rounds against buffered-async
// rounds (and async plus event-triggered uploads) on the same heterogeneous
// device population: time-to-accuracy under straggler-heavy compute,
// diverse uplinks, and transient dropout.
type AsyncResult struct {
	// Workload names the compared workload.
	Workload string
	// Curves map the compared workload → mode.
	Curves
	// TimeToTarget maps mode → emulated seconds to the workload target
	// (full-run time when the target was not reached; see Reached).
	TimeToTarget map[string]float64
	Reached      map[string]bool
	// UpGB maps mode → total encoded uplink gigabytes (emulated model
	// scale, as accounted by the strategies' traffic counters).
	UpGB map[string]float64
	// StaleDrops maps mode → contributions dropped for exceeding the
	// async staleness bound (zero for sync).
	StaleDrops map[string]int
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

	grid := []GridRun{
		{Cfg: syncCfg.named(w, "fedavg"), Label: w.Name + "/sync"},
		{Cfg: asyncCfg.named(w, "fedavg"), Label: w.Name + "/async"},
		{Cfg: eventCfg.named(w, "fedavg"), Label: w.Name + "/async-event"},
	}
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}

	res := &AsyncResult{
		Workload:     w.Name,
		TimeToTarget: map[string]float64{},
		Reached:      map[string]bool{},
		UpGB:         map[string]float64{},
		StaleDrops:   map[string]int{},
	}
	for i, mode := range AsyncModes() {
		run := runs[i]
		res.add(w.Name, mode, run)
		upBytes, drops := 0.0, 0
		for _, st := range run.Stats {
			upBytes += float64(st.Traffic.UpBytes)
			drops += st.StaleDrops
		}
		secs, _, reached := run.TimeToAccuracy(w.TargetAccuracy)
		res.TimeToTarget[mode] = secs
		res.Reached[mode] = reached
		res.UpGB[mode] = upBytes / 1e9
		res.StaleDrops[mode] = drops
	}
	return res, nil
}

// Report prints the comparison summary.
func (r *AsyncResult) Report(w io.Writer) {
	t := trace.NewTable(fmt.Sprintf("Async rounds: sync vs buffered-async (%s)", r.Workload),
		"Mode", "Time to Target (s)", "Reached", "Final Acc", "Uplink GB", "Stale Drops")
	for _, mode := range AsyncModes() {
		t.AddRow(mode,
			fmt.Sprintf("%.0f", r.TimeToTarget[mode]),
			r.Reached[mode],
			fmt.Sprintf("%.3f", r.FinalAccuracy[r.Workload][mode]),
			fmt.Sprintf("%.2f", r.UpGB[mode]),
			r.StaleDrops[mode])
	}
	t.Render(w)
}
