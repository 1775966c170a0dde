package exp

import (
	"context"
	"fmt"
	"math/rand"

	"fedsu/internal/core"
	"fedsu/internal/sparse"
	"fedsu/internal/stats"
	"fedsu/internal/trace"
)

// Fig6Result compares a sampled parameter's trajectory under FedSU against
// regular synchronization (FedAvg), with the speculative-period boundaries
// marked — the paper's Fig. 6 microscope.
type Fig6Result struct {
	// Workload names the model.
	Workload string
	// ParamIndex is the sampled parameter.
	ParamIndex int
	// FedSU and FedAvg are the trajectories (x = round, y = value).
	FedSU, FedAvg *trace.Series
	// SpecStart and SpecEnd are the rounds where speculative periods began
	// and ended for the sampled parameter.
	SpecStart, SpecEnd []int
}

// RunFig6 runs FedSU and FedAvg on the same workload and seed and records
// the trajectory of a parameter that spends substantial time in speculative
// mode.
func RunFig6(ctx context.Context, cfg Config, w Workload) (*Fig6Result, error) {
	// FedSU run with per-round mask tracking over a pool of candidate
	// parameters; the most-speculative candidate is reported.
	tr, err := track(ctx, cfg.named(w, "fedsu"), func(size int) []int {
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		cand := make([]int, 32)
		for i := range cand {
			cand[i] = rng.Intn(size)
		}
		return cand
	})
	if err != nil {
		return nil, err
	}
	// Pick the candidate with the most speculative rounds.
	best, bestSpec := 0, -1
	for i := range tr.params {
		n := 0
		for _, m := range tr.masks[i] {
			if m {
				n++
			}
		}
		if n > bestSpec {
			best, bestSpec = i, n
		}
	}

	res := &Fig6Result{Workload: w.Name, ParamIndex: tr.params[best]}
	res.FedSU = roundSeries("fedsu", tr.values[best])
	prev := false
	for k, m := range tr.masks[best] {
		if m && !prev {
			res.SpecStart = append(res.SpecStart, k)
		}
		if !m && prev {
			res.SpecEnd = append(res.SpecEnd, k)
		}
		prev = m
	}

	// FedAvg reference trajectory on the identical workload and seed.
	ref, err := track(ctx, cfg.named(w, "fedavg"), func(int) []int { return []int{res.ParamIndex} })
	if err != nil {
		return nil, err
	}
	res.FedAvg = roundSeries("fedavg", ref.values[0])
	return res, nil
}

// Report is Fig. 6's summary table and the two trajectories.
func (r *Fig6Result) Report() Report {
	t := trace.NewTable(fmt.Sprintf("Fig 6 (%s, param %d): FedSU vs FedAvg trajectory", r.Workload, r.ParamIndex),
		"Measure", "Value")
	t.AddRow("speculative periods start", fmt.Sprint(r.SpecStart))
	t.AddRow("speculative periods end", fmt.Sprint(r.SpecEnd))
	t.AddRow("normalized approximation error", fmt.Sprintf("%.4f", r.ApproximationError()))
	return Report{Tables: []*trace.Table{t}, Figures: []Figure{{
		File: "fig6_" + r.Workload + ".csv", Title: fmt.Sprintf("Fig 6 (%s): trajectories", r.Workload),
		Series: []*trace.Series{r.FedSU, r.FedAvg},
	}}}
}

// ApproximationError returns the mean absolute gap between the FedSU and
// FedAvg trajectories, normalized by the FedAvg trajectory's span — a
// quantitative version of Fig. 6's "FedSU well approximates FedAvg".
func (r *Fig6Result) ApproximationError() float64 {
	n := r.FedSU.Len()
	if r.FedAvg.Len() < n {
		n = r.FedAvg.Len()
	}
	if n == 0 {
		return 0
	}
	lo, hi := r.FedAvg.Y[0], r.FedAvg.Y[0]
	for _, v := range r.FedAvg.Y[:n] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := r.FedSU.Y[i] - r.FedAvg.Y[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n) / span
}

// Fig7Result holds the CDF of per-parameter linear-time fractions under
// FedSU, the paper's Fig. 7, one entry per workload in grid order.
type Fig7Result struct {
	// CDFs are the CDF series, each named by its workload (x = linear
	// fraction, y = cumulative share of parameters).
	CDFs []*trace.Series
	// ShareLinearMajority aligns with CDFs: the share of parameters that
	// were speculative for more than half the run (paper: > 80 %).
	ShareLinearMajority []float64
}

// RunFig7 runs FedSU on the given workloads, on the grid scheduler, and
// collects each parameter's diagnosed-as-linear time fraction.
func RunFig7(ctx context.Context, h Harness, cfg Config, workloads []Workload) (*Fig7Result, error) {
	g, err := runGrid(ctx, h, schemeGrid(cfg, workloads, []string{"fedsu"}))
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	for i, c := range g.Cells {
		mgr, ok := sparse.UnwrapSyncer(g.Runs[i].Engine.Clients()[0].Syncer()).(*core.Manager)
		if !ok {
			return nil, fmt.Errorf("exp: fig7 requires a FedSU manager")
		}
		fr := mgr.LinearFractions()
		xs, ys := stats.NewCDF(fr).Points(64)
		s := trace.NewSeries(c.Cfg.Workload, "linear_fraction", "cdf")
		for j := range xs {
			s.Add(xs[j], ys[j])
		}
		over := 0
		for _, f := range fr {
			if f > 0.5 {
				over++
			}
		}
		res.CDFs = append(res.CDFs, s)
		res.ShareLinearMajority = append(res.ShareLinearMajority, float64(over)/float64(len(fr)))
	}
	return res, nil
}

// Report is Fig. 7's summary table and each workload's CDF.
func (r *Fig7Result) Report() Report {
	t := trace.NewTable("Fig 7: share of parameters linear for > 50% of training", "Model", "Share")
	var rep Report
	for i, cdf := range r.CDFs {
		t.AddRow(cdf.Name, fmt.Sprintf("%.0f%%", 100*r.ShareLinearMajority[i]))
		rep.Figures = append(rep.Figures, Figure{File: "fig7_cdf_" + cdf.Name + ".csv", Series: []*trace.Series{cdf}})
	}
	rep.Tables = []*trace.Table{t}
	return rep
}
