package exp

import (
	"context"
	"fmt"
	"io"

	"fedsu/internal/trace"
)

// Schemes returns the paper's end-to-end comparison set in Table I order.
func Schemes() []string { return []string{"fedsu", "apf", "cmfl", "fedavg"} }

// EndToEndResult bundles the runs behind Table I and Fig. 5.
type EndToEndResult struct {
	Cfg Config
	// Curves map workload → scheme.
	Curves
}

// RunEndToEnd executes every (workload, scheme) pair of the paper's
// end-to-end evaluation on the grid scheduler (h.Parallel runs in
// flight, shared dataset/partition cache). The same result feeds Table I
// and Fig. 5.
func RunEndToEnd(ctx context.Context, h Harness, cfg Config, workloads []Workload, schemes []string) (*EndToEndResult, error) {
	grid := endToEndGrid(cfg, workloads, schemes)
	runs, err := h.Run(ctx, grid)
	if err != nil {
		return nil, err
	}
	return assembleEndToEnd(cfg, grid, runs), nil
}

// endToEndGrid flattens the (workload × scheme) matrix into grid cells in
// the sequential loop's iteration order.
func endToEndGrid(cfg Config, workloads []Workload, schemes []string) []GridRun {
	grid := make([]GridRun, 0, len(workloads)*len(schemes))
	for _, w := range workloads {
		for _, s := range schemes {
			grid = append(grid, GridRun{Cfg: cfg.named(w, s)})
		}
	}
	return grid
}

// assembleEndToEnd indexes the scheduler's input-ordered results back into
// the workload→scheme map.
func assembleEndToEnd(cfg Config, grid []GridRun, runs []*Run) *EndToEndResult {
	res := &EndToEndResult{Cfg: cfg}
	for i, g := range grid {
		res.add(g.Cfg.Workload, g.Cfg.Scheme, runs[i])
	}
	return res
}

// Table1 renders the time-to-target-accuracy comparison: per-round time,
// number of rounds, and total time per (model, scheme) — the paper's
// Table I.
func (r *EndToEndResult) Table1(workloads []Workload) *trace.Table {
	t := trace.NewTable(
		"Table I: time to reach the target accuracy",
		"Model", "Target", "Scheme", "Per-round Time (s)", "# of Rounds", "Total Time (h)", "Reached",
	)
	for _, w := range workloads {
		for _, s := range Schemes() {
			run, ok := r.Runs[w.Name][s]
			if !ok {
				continue
			}
			secs, rounds, reached := run.TimeToAccuracy(w.TargetAccuracy)
			t.AddRow(
				w.Name,
				fmt.Sprintf("%.2f", w.TargetAccuracy),
				s,
				secs/float64(rounds),
				rounds,
				secs/3600,
				reached,
			)
		}
	}
	return t
}

// Fig5Series extracts the time-to-accuracy curves and (for apf/fedsu) the
// instantaneous sparsification-ratio curves of one workload, the content of
// Fig. 5.
func (r *EndToEndResult) Fig5Series(workload string) (acc, ratio []*trace.Series) {
	for _, s := range Schemes() {
		if a, ok := r.Accuracy[workload][s]; ok {
			acc = append(acc, a)
			if s == "apf" || s == "fedsu" {
				ratio = append(ratio, r.Ratio[workload][s])
			}
		}
	}
	return acc, ratio
}

// Report writes Table I, the per-workload Fig. 5 summaries, and the FedSU
// speedup factors versus the second-best scheme.
func (r *EndToEndResult) Report(w io.Writer, workloads []Workload) error {
	if err := r.Table1(workloads).Render(w); err != nil {
		return err
	}
	for _, wl := range workloads {
		fedsu, ok := r.Runs[wl.Name]["fedsu"]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s: FedSU mean sparsification %.1f%%", wl.Name, 100*fedsu.MeanSparsification())
		if apf, ok := r.Runs[wl.Name]["apf"]; ok {
			fmt.Fprintf(w, " (APF %.1f%%)", 100*apf.MeanSparsification())
			ts, _, _ := fedsu.TimeToAccuracy(wl.TargetAccuracy)
			ta, _, _ := apf.TimeToAccuracy(wl.TargetAccuracy)
			if ts > 0 {
				fmt.Fprintf(w, "; speedup vs APF %.1f%%", 100*(ta-ts)/ta)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
