package exp

import (
	"context"
	"fmt"
	"io"
	"math"

	"fedsu/internal/trace"
)

// Fig8Result holds the ablation comparison of FedSU against FedSU-v1 (no
// error feedback) and FedSU-v2 (neither error feedback nor linearity
// diagnosis) — the paper's Fig. 8. Its curves map workload → variant.
type Fig8Result struct{ Curves }

// Variants returns the ablation set.
func Variants() []string { return []string{"fedsu", "fedsu-v1", "fedsu-v2"} }

// RunFig8 runs the ablation on the given workloads (the paper uses CNN and
// DenseNet). The fixed speculative period and launch probability for v1/v2
// come from cfg.FedSU (the paper sets 43/0.53 % for CNN and 58/0.81 % for
// DenseNet, profiled from standard FedSU runs).
func RunFig8(ctx context.Context, h Harness, cfg Config, workloads []Workload) (*Fig8Result, error) {
	var grid []GridRun
	for _, w := range workloads {
		for _, v := range Variants() {
			grid = append(grid, GridRun{Cfg: cfg.named(w, v)})
		}
	}
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for i, g := range grid {
		res.add(g.Cfg.Workload, g.Cfg.Scheme, runs[i])
	}
	return res, nil
}

// AccuracyStd is the standard deviation of the round-to-round changes of
// workload w's accuracy curve under variant v, a fluctuation measure: v2
// is expected to be markedly less stable.
func (r *Fig8Result) AccuracyStd(w, v string) float64 {
	acc := r.Accuracy[w][v].Y
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

// Report prints the ablation summary.
func (r *Fig8Result) Report(w io.Writer) {
	t := trace.NewTable("Fig 8: ablation (FedSU vs v1 vs v2)",
		"Model", "Variant", "Final Acc", "Mean Sparsification", "Acc Fluctuation")
	for name := range r.FinalAccuracy {
		for _, v := range Variants() {
			t.AddRow(name, v,
				r.FinalAccuracy[name][v],
				fmt.Sprintf("%.1f%%", 100*r.MeanRatio[name][v]),
				r.AccuracyStd(name, v))
		}
	}
	t.Render(w)
}
