package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"fedsu/internal/core"
	"fedsu/internal/fl"
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
	var cand []int
	traj, masks, _, err := trackParams(ctx, cfg, w, "fedsu", func(size int) []int {
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		cand = make([]int, 32)
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
	for i := range cand {
		n := 0
		for _, m := range masks[i] {
			if m {
				n++
			}
		}
		if n > bestSpec {
			best, bestSpec = i, n
		}
	}

	res := &Fig6Result{Workload: w.Name, ParamIndex: cand[best]}
	res.FedSU = trace.NewSeries("fedsu", "round", "value")
	for k, v := range traj[best] {
		res.FedSU.Add(float64(k), v)
	}
	prev := false
	for k, m := range masks[best] {
		if m && !prev {
			res.SpecStart = append(res.SpecStart, k)
		}
		if !m && prev {
			res.SpecEnd = append(res.SpecEnd, k)
		}
		prev = m
	}

	// FedAvg reference trajectory on the identical workload and seed.
	ref, _, _, err := trackParams(ctx, cfg, w, "fedavg", func(int) []int { return []int{cand[best]} })
	if err != nil {
		return nil, err
	}
	res.FedAvg = trace.NewSeries("fedavg", "round", "value")
	for k, v := range ref[0] {
		res.FedAvg.Add(float64(k), v)
	}
	return res, nil
}

// trackParams trains the (w, scheme) run of cfg — the engine RunOne trains —
// for cfg.Rounds rounds without evaluation. pick chooses the parameters to
// follow from the model size; every round records their global values and,
// under FedSU, their predictability-mask bits. The finished engine is
// returned too.
func trackParams(ctx context.Context, cfg Config, w Workload, scheme string, pick func(size int) []int) ([][]float64, [][]bool, *fl.Engine, error) {
	engine, err := NewEngine(cfg, w, scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	params := pick(len(engine.GlobalVector()))
	traj := make([][]float64, len(params))
	masks := make([][]bool, len(params))
	for k := 0; k < cfg.Rounds; k++ {
		if _, err := engine.RunRound(ctx, false); err != nil {
			return nil, nil, nil, err
		}
		vec := engine.GlobalVector()
		var mask []bool
		if mgr, ok := sparse.UnwrapSyncer(engine.Clients()[0].Syncer()).(*core.Manager); ok {
			mask = mgr.PredictableMask()
		}
		for i, p := range params {
			traj[i] = append(traj[i], vec[p])
			if mask != nil {
				masks[i] = append(masks[i], mask[p])
			}
		}
	}
	return traj, masks, engine, nil
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
// FedSU, the paper's Fig. 7.
type Fig7Result struct {
	// CDFs maps workload to the CDF series (x = linear fraction,
	// y = cumulative share of parameters).
	CDFs map[string]*trace.Series
	// ShareLinearMajority maps workload to the share of parameters that
	// were speculative for more than half the run (paper: > 80 %).
	ShareLinearMajority map[string]float64
}

// RunFig7 runs FedSU on the given workloads and collects each parameter's
// diagnosed-as-linear time fraction.
func RunFig7(ctx context.Context, cfg Config, workloads []Workload) (*Fig7Result, error) {
	res := &Fig7Result{
		CDFs:                map[string]*trace.Series{},
		ShareLinearMajority: map[string]float64{},
	}
	for _, w := range workloads {
		run, err := RunOne(ctx, cfg, w, "fedsu")
		if err != nil {
			return nil, err
		}
		mgr, ok := sparse.UnwrapSyncer(run.Engine.Clients()[0].Syncer()).(*core.Manager)
		if !ok {
			return nil, fmt.Errorf("exp: fig7 requires a FedSU manager")
		}
		fr := mgr.LinearFractions()
		cdf := stats.NewCDF(fr)
		xs, ys := cdf.Points(64)
		s := trace.NewSeries(w.Name, "linear_fraction", "cdf")
		for i := range xs {
			s.Add(xs[i], ys[i])
		}
		res.CDFs[w.Name] = s
		over := 0
		for _, f := range fr {
			if f > 0.5 {
				over++
			}
		}
		res.ShareLinearMajority[w.Name] = float64(over) / float64(len(fr))
	}
	return res, nil
}

// Report summarizes Fig. 7.
func (r *Fig7Result) Report(w io.Writer) {
	fmt.Fprintln(w, "Fig 7: share of parameters linear for > 50% of training")
	for name, share := range r.ShareLinearMajority {
		fmt.Fprintf(w, "  %s: %.0f%%\n", name, 100*share)
	}
}
