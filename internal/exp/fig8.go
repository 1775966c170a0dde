package exp

import (
	"context"
	"math"

	"fedsu/internal/trace"
)

// Fig8Result holds the ablation comparison of FedSU against FedSU-v1 (no
// error feedback) and FedSU-v2 (neither error feedback nor linearity
// diagnosis) — the paper's Fig. 8: one cell per (workload, variant),
// labelled by its variant.
type Fig8Result struct{ Grid }

// Variants returns the ablation set.
func Variants() []string { return []string{"fedsu", "fedsu-v1", "fedsu-v2"} }

// RunFig8 runs the ablation on the given workloads (the paper uses CNN and
// DenseNet). The fixed speculative period and launch probability for v1/v2
// come from cfg.FedSU (the paper sets 43/0.53 % for CNN and 58/0.81 % for
// DenseNet, profiled from standard FedSU runs).
func RunFig8(ctx context.Context, h Harness, cfg Config, workloads []Workload) (*Fig8Result, error) {
	g, err := runGrid(ctx, h, schemeGrid(cfg, workloads, Variants()))
	if err != nil {
		return nil, err
	}
	return &Fig8Result{g}, nil
}

// accuracyStd is the standard deviation of the round-to-round changes of
// run's accuracy curve, a fluctuation measure: v2 is expected to be
// markedly less stable.
func accuracyStd(run *Run) float64 {
	acc := run.AccuracyCurve("").Y
	if len(acc) < 2 {
		return 0
	}
	xs := make([]float64, len(acc)-1)
	for k := range xs {
		xs[k] = acc[k+1] - acc[k]
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	s := 0.0
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	// Population std; enough for a fluctuation comparison.
	return math.Sqrt(s / float64(len(xs)))
}

// Report is the ablation table and each workload's accuracy curves.
func (r *Fig8Result) Report() Report {
	t := trace.NewTable("Fig 8: ablation (FedSU vs v1 vs v2)",
		"Model", "Variant", "Final Acc", "Mean Sparsification", "Acc Fluctuation")
	var figs []Figure
	for _, w := range r.workloads() {
		labels, runs := r.of(w)
		var acc []*trace.Series
		for i, v := range labels {
			t.AddRow(w, v, runs[i].FinalAccuracy(), pct(runs[i].MeanSparsification()), accuracyStd(runs[i]))
			acc = append(acc, runs[i].AccuracyCurve(v))
		}
		figs = append(figs, Figure{File: "fig8_acc_" + w + ".csv", Series: acc})
	}
	return Report{Tables: []*trace.Table{t}, Figures: figs}
}
