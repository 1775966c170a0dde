package exp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fedsu/internal/trace"
)

// PopScaleResult bundles the population-scale aggregation comparison: the
// same (workload, scheme) trained over cohorts sampled from a registered
// population, folded flat and through hierarchical trees at the given
// fanouts. Because the tree is bit-identical to the flat fold, every run
// follows the same training trajectory — the comparison isolates the
// systems columns (root ingest, partial count, round time).
type PopScaleResult struct {
	Cfg      Config
	Workload Workload
	Scheme   string
	// Fanouts holds the compared tree fanouts; 0 is the flat collective.
	Fanouts []int
	// Runs aligns with Fanouts.
	Runs []*Run
}

// RunPopScale executes the population-scale comparison on the grid
// scheduler. cfg.Population is the registry size (devices); cfg.Clients
// is the per-round cohort size. fanouts lists the tree fanouts to compare
// against the flat baseline (0 is inserted when absent).
func RunPopScale(ctx context.Context, h Harness, cfg Config, w Workload, scheme string, fanouts []int) (*PopScaleResult, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("exp: popscale needs a population size (got %d)", cfg.Population)
	}
	withFlat := fanouts
	if !slices.Contains(fanouts, 0) {
		withFlat = append([]int{0}, fanouts...)
	}
	grid := make([]GridRun, 0, len(withFlat))
	for _, f := range withFlat {
		cell := cfg
		cell.Fanout = f
		label := scheme + "/flat"
		if f > 0 {
			label = fmt.Sprintf("%s/fanout=%d", scheme, f)
		}
		grid = append(grid, GridRun{Cfg: cell.named(w, scheme), Label: label})
	}
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}
	return &PopScaleResult{Cfg: cfg, Workload: w, Scheme: scheme, Fanouts: withFlat, Runs: runs}, nil
}

// BitIdentical reports whether run i's final global parameters match the
// flat baseline's exactly (the tentpole correctness bar: the tree is a
// topology change, never a numerics change).
func (r *PopScaleResult) BitIdentical(i int) bool {
	flat := r.flatRun()
	if flat == nil || r.Runs[i] == nil {
		return false
	}
	return slices.EqualFunc(flat.Engine.GlobalVector(), r.Runs[i].Engine.GlobalVector(),
		func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}

func (r *PopScaleResult) flatRun() *Run {
	if i := slices.Index(r.Fanouts, 0); i >= 0 {
		return r.Runs[i]
	}
	return nil
}

// Report is the comparison table: convergence plus the per-tier systems
// columns at equal cohorts — what a Table-I row looks like when the
// registered population is 10^5–10^6 and the root no longer ingests every
// member's upload.
func (r *PopScaleResult) Report() Report {
	t := trace.NewTable(
		fmt.Sprintf("Population-scale aggregation: %s/%s, %d registered, cohort %d",
			r.Workload.Name, r.Scheme, r.Cfg.Population, r.Cfg.Clients),
		"Fanout", "Tiers", "Final Acc", "Round Time (s)", "Up MB/round",
		"Root Rx KB/round", "Partials/round", "Global == flat",
	)
	for i, f := range r.Fanouts {
		run := r.Runs[i]
		if run == nil || len(run.Stats) == 0 {
			continue
		}
		rounds := float64(len(run.Stats))
		var upBytes, rootRx, partials float64
		tiers := 0
		for _, st := range run.Stats {
			upBytes += float64(st.Traffic.UpBytes)
			rootRx += float64(st.RootRxBytes)
			partials += float64(st.ForwardedPartials)
			if st.Tiers > tiers {
				tiers = st.Tiers
			}
		}
		fanout := "flat"
		if f > 0 {
			fanout = fmt.Sprintf("%d", f)
		}
		t.AddRow(
			fanout,
			tiers,
			fmt.Sprintf("%.3f", run.FinalAccuracy()),
			run.MeanRoundTime(),
			upBytes/rounds/1e6,
			rootRx/rounds/1e3,
			partials/rounds,
			r.BitIdentical(i),
		)
	}
	return Report{Tables: []*trace.Table{t}}
}
