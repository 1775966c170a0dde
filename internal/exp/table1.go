package exp

import (
	"context"
	"fmt"

	"fedsu/internal/trace"
)

// Schemes returns the paper's end-to-end comparison set in Table I order.
func Schemes() []string { return []string{"fedsu", "apf", "cmfl", "fedavg"} }

// EndToEndResult bundles the runs behind Table I and Fig. 5: one cell per
// (workload, scheme), labelled by its scheme.
type EndToEndResult struct {
	Workloads []Workload
	Grid
}

// RunEndToEnd executes every (workload, scheme) pair of the paper's
// end-to-end evaluation on the grid scheduler (h.Parallel runs in
// flight, shared dataset/partition cache). The same result feeds Table I
// and Fig. 5.
func RunEndToEnd(ctx context.Context, h Harness, cfg Config, workloads []Workload, schemes []string) (*EndToEndResult, error) {
	g, err := runGrid(ctx, h, schemeGrid(cfg, workloads, schemes))
	if err != nil {
		return nil, err
	}
	return &EndToEndResult{Workloads: workloads, Grid: g}, nil
}

// schemeGrid flattens the (workload × scheme) matrix into grid cells,
// workload-major.
func schemeGrid(cfg Config, workloads []Workload, schemes []string) []GridRun {
	grid := make([]GridRun, 0, len(workloads)*len(schemes))
	for _, w := range workloads {
		for _, s := range schemes {
			grid = append(grid, GridRun{Cfg: cfg.named(w, s)})
		}
	}
	return grid
}

// Report is Table I — per-round time, number of rounds and total time to
// the target accuracy per (model, scheme) — then FedSU's mean
// sparsification and speedup against APF per model, and per model Fig. 5:
// the time-to-accuracy curves and the sparsification-ratio curves of APF
// and FedSU.
func (r *EndToEndResult) Report() Report {
	t1 := trace.NewTable(
		"Table I: time to reach the target accuracy",
		"Model", "Target", "Scheme", "Per-round Time (s)", "# of Rounds", "Total Time (h)", "Reached",
	)
	vs := trace.NewTable("FedSU vs APF: mean sparsification and speedup to the target",
		"Model", "FedSU Sparsification", "APF Sparsification", "Speedup vs APF")
	var figs []Figure
	for _, w := range r.Workloads {
		labels, runs := r.of(w.Name)
		var acc, ratio []*trace.Series
		for i, s := range labels {
			secs, rounds, reached := runs[i].TimeToAccuracy(w.TargetAccuracy)
			t1.AddRow(w.Name, fmt.Sprintf("%.2f", w.TargetAccuracy), s,
				secs/float64(rounds), rounds, secs/3600, reached)
			acc = append(acc, runs[i].AccuracyCurve(s))
			if s == "apf" || s == "fedsu" {
				ratio = append(ratio, runs[i].RatioCurve(s))
			}
		}
		if fedsu := r.Lookup(w.Name, "fedsu"); fedsu != nil {
			apfSparse, speedup := "-", "-"
			if apf := r.Lookup(w.Name, "apf"); apf != nil {
				apfSparse, speedup = pct(apf.MeanSparsification()), speedupVs(fedsu, apf, w.TargetAccuracy)
			}
			vs.AddRow(w.Name, pct(fedsu.MeanSparsification()), apfSparse, speedup)
		}
		figs = append(figs,
			Figure{File: "fig5_acc_" + w.Name + ".csv", Title: fmt.Sprintf("Fig 5 (%s): time-to-accuracy", w.Name), Series: acc},
			Figure{File: "fig5_ratio_" + w.Name + ".csv", Series: ratio})
	}
	return Report{Tables: []*trace.Table{t1, vs}, Figures: figs}
}

// speedupVs is how much sooner fedsu reached target than base, as a
// percentage of base's time, or "not reached" unless both reached it: a
// run that missed the target only has its full-run time to offer.
func speedupVs(fedsu, base *Run, target float64) string {
	ts, _, okS := fedsu.TimeToAccuracy(target)
	tb, _, okB := base.TimeToAccuracy(target)
	if !okS || !okB {
		return "not reached"
	}
	return pct((tb - ts) / tb)
}

// pct formats a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
