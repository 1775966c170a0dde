package exp

import (
	"context"
	"fmt"
	"io"

	"fedsu/internal/core"
	"fedsu/internal/trace"
)

// SweepResult holds one hyper-parameter sensitivity sweep (Fig. 9 for T_ℛ,
// Fig. 10 for T_𝒮).
type SweepResult struct {
	// Param is "TR" or "TS".
	Param string
	// Values are the swept threshold values.
	Values []float64
	// Curves map workload → threshold label.
	Curves
}

// Fig9Thresholds are the paper's T_ℛ sweep values.
func Fig9Thresholds() []float64 { return []float64{0.1, 0.01, 0.001, 0.0001} }

// Fig10Thresholds are the paper's T_𝒮 sweep values.
func Fig10Thresholds() []float64 { return []float64{0.1, 1, 10, 100} }

// RunFig9 sweeps the linearity-diagnosis threshold T_ℛ.
func RunFig9(ctx context.Context, h Harness, cfg Config, workloads []Workload) (*SweepResult, error) {
	return runSweep(ctx, h, cfg, workloads, "TR", Fig9Thresholds(), func(o *core.Options, v float64) { o.TR = v })
}

// RunFig10 sweeps the error-feedback threshold T_𝒮.
func RunFig10(ctx context.Context, h Harness, cfg Config, workloads []Workload) (*SweepResult, error) {
	return runSweep(ctx, h, cfg, workloads, "TS", Fig10Thresholds(), func(o *core.Options, v float64) { o.TS = v })
}

// runSweep trains FedSU on every workload once per value, set writing the
// value into the FedSU options as param.
func runSweep(ctx context.Context, h Harness, cfg Config, workloads []Workload, param string, values []float64, set func(*core.Options, float64)) (*SweepResult, error) {
	var grid []GridRun
	for _, w := range workloads {
		for _, v := range values {
			c := cfg
			set(&c.FedSU, v)
			label := fmt.Sprintf("%s=%g", param, v)
			// The swept threshold does not change the training data, so
			// every cell of a workload's sweep shares one cached dataset
			// and partition.
			grid = append(grid, GridRun{Cfg: c.named(w, "fedsu"), Label: w.Name + "/" + label})
		}
	}
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Param: param, Values: values}
	for i, g := range grid {
		res.add(g.Cfg.Workload, g.Label[len(g.Cfg.Workload)+1:], runs[i])
	}
	return res, nil
}

// Report prints the sweep summary table.
func (r *SweepResult) Report(w io.Writer) {
	t := trace.NewTable(
		fmt.Sprintf("Sensitivity to %s", r.Param),
		"Model", r.Param, "Final Acc", "Mean Sparsification")
	for name := range r.FinalAccuracy {
		for _, v := range r.Values {
			label := fmt.Sprintf("%s=%g", r.Param, v)
			t.AddRow(name, fmt.Sprintf("%g", v),
				r.FinalAccuracy[name][label],
				fmt.Sprintf("%.1f%%", 100*r.MeanRatio[name][label]))
		}
	}
	t.Render(w)
}
