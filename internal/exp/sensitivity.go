package exp

import (
	"context"
	"fmt"

	"fedsu/internal/core"
	"fedsu/internal/trace"
)

// SweepResult holds one hyper-parameter sensitivity sweep (Fig. 9 for T_ℛ,
// Fig. 10 for T_𝒮): one cell per (workload, value), labelled
// "Param=value".
type SweepResult struct {
	// Param is "TR" or "TS".
	Param string
	// Values are the swept threshold values.
	Values []float64
	Grid
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
			// The swept threshold does not change the training data, so
			// every cell of a workload's sweep shares one cached dataset
			// and partition.
			grid = append(grid, GridRun{Cfg: c.named(w, "fedsu"), Label: sweepLabel(param, v)})
		}
	}
	g, err := runGrid(ctx, h, grid)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Param: param, Values: values, Grid: g}, nil
}

// sweepLabel names the cell of value v of a param sweep.
func sweepLabel(param string, v float64) string { return fmt.Sprintf("%s=%g", param, v) }

// Report is the sweep summary table.
func (r *SweepResult) Report() Report {
	t := trace.NewTable(
		fmt.Sprintf("Sensitivity to %s", r.Param),
		"Model", r.Param, "Final Acc", "Mean Sparsification")
	for _, w := range r.workloads() {
		for _, v := range r.Values {
			if run := r.Lookup(w, sweepLabel(r.Param, v)); run != nil {
				t.AddRow(w, fmt.Sprintf("%g", v), run.FinalAccuracy(), pct(run.MeanSparsification()))
			}
		}
	}
	return Report{Tables: []*trace.Table{t}}
}
