package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"fedsu/internal/core"
	"fedsu/internal/fl"
	"fedsu/internal/sparse"
	"fedsu/internal/stats"
	"fedsu/internal/trace"
)

// Fig12Result holds the two measurements of the paper's motivation
// (Sec. III-A) over plain FedAvg training of the CNN and DenseNet
// workloads, one entry per workload in that order: Fig. 1's sampled
// parameter trajectories and Fig. 2's cross-round normalized differences.
type Fig12Result struct {
	Workloads []Fig12Workload
	// FracThreshold is the threshold used for FracBelow.
	FracThreshold float64
}

// Fig12Workload is one workload's FedAvg run as Figs. 1 and 2 see it.
type Fig12Workload struct {
	Name string
	// Trajectories are the sampled parameters' global values
	// (x = round, y = value).
	Trajectories []*trace.Series
	// Instantaneous is ‖δ_{k+1} − δ_k‖/‖δ_k‖ per round and CDF its CDF.
	Instantaneous, CDF *trace.Series
	// FracBelow is the fraction of updates with normalized difference
	// below FracThreshold (the paper reports > 90 %); NaN when the run
	// had fewer than two updates.
	FracBelow float64
}

// RunFig12 trains the CNN and DenseNet workloads once each under FedAvg,
// recording samplesPerModel randomly-selected scalar parameters (Fig. 1)
// and the per-round normalized difference of the global updates (Fig. 2).
func RunFig12(ctx context.Context, cfg Config, samplesPerModel int) (*Fig12Result, error) {
	res := &Fig12Result{FracThreshold: 0.05}
	for _, w := range []Workload{CNNWorkload(), DenseNetWorkload()} {
		tr, err := track(ctx, cfg.named(w, "fedavg"), func(size int) []int {
			rng := rand.New(rand.NewSource(cfg.Seed + 5))
			idx := make([]int, samplesPerModel)
			for i := range idx {
				idx[i] = rng.Intn(size)
			}
			return idx
		})
		if err != nil {
			return nil, err
		}
		fw := Fig12Workload{Name: w.Name, FracBelow: math.NaN()}
		for i, p := range tr.params {
			fw.Trajectories = append(fw.Trajectories, roundSeries(fmt.Sprintf("%s.param%d", w.Name, p), tr.values[i]))
		}
		nds := tr.normDiffs
		fw.Instantaneous = trace.NewSeries(w.Name, "round", "normalized_difference")
		for k, nd := range nds {
			fw.Instantaneous.Add(float64(k+1), nd)
		}
		xs, ys := stats.NewCDF(nds).Points(50)
		fw.CDF = trace.NewSeries(w.Name, "normalized_difference", "cdf")
		for i := range xs {
			fw.CDF.Add(xs[i], ys[i])
		}
		below := 0
		for _, v := range nds {
			if v < res.FracThreshold {
				below++
			}
		}
		if len(nds) > 0 {
			fw.FracBelow = float64(below) / float64(len(nds))
		}
		res.Workloads = append(res.Workloads, fw)
	}
	return res, nil
}

// Report is Fig. 1's trajectories per workload, Fig. 2's summary table,
// the first workload's (the CNN's) instantaneous normalized differences,
// and each workload's CDF.
func (r *Fig12Result) Report() Report {
	t := trace.NewTable("Fig 2: cross-round normalized difference of global updates",
		"Model", fmt.Sprintf("Updates below %.3f", r.FracThreshold))
	var rep Report
	for _, w := range r.Workloads {
		rep.Figures = append(rep.Figures, Figure{
			File: "fig1_" + w.Name + ".csv", Title: fmt.Sprintf("Fig 1 (%s): parameter trajectories", w.Name),
			Series: w.Trajectories,
		})
		if !math.IsNaN(w.FracBelow) {
			t.AddRow(w.Name, fmt.Sprintf("%.0f%%", 100*w.FracBelow))
		}
	}
	rep.Tables = []*trace.Table{t}
	if len(r.Workloads) > 0 {
		first := r.Workloads[0]
		rep.Figures = append(rep.Figures, Figure{
			File: "fig2_instantaneous.csv", Title: fmt.Sprintf("Fig 2 (%s): instantaneous normalized difference", first.Name),
			Series: []*trace.Series{first.Instantaneous},
		})
	}
	for _, w := range r.Workloads {
		rep.Figures = append(rep.Figures, Figure{File: "fig2_cdf_" + w.Name + ".csv", Series: []*trace.Series{w.CDF}})
	}
	return rep
}

// trajectory is what track records of one run.
type trajectory struct {
	// params are the followed parameters; values[i][k] is params[i]'s
	// global value after round k and, under FedSU, masks[i][k] its
	// predictability-mask bit.
	params []int
	values [][]float64
	masks  [][]bool
	// normDiffs[k-1] is the normalized difference between the global
	// updates of rounds k-1 and k.
	normDiffs []float64
	engine    *fl.Engine
}

// track trains the run cfg names — the engine RunOne trains — round by
// round for cfg.Rounds rounds without evaluation, the trajectory driver of
// Figs. 1, 2 and 6. pick chooses the parameters to follow from the model
// size.
func track(ctx context.Context, cfg Config, pick func(size int) []int) (*trajectory, error) {
	engine, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	prev := engine.GlobalVector()
	tr := &trajectory{params: pick(len(prev)), engine: engine}
	tr.values = make([][]float64, len(tr.params))
	tr.masks = make([][]bool, len(tr.params))
	var prevUpd []float64
	for k := 0; k < cfg.Rounds; k++ {
		if _, err := engine.RunRound(ctx, false); err != nil {
			return nil, err
		}
		cur := engine.GlobalVector()
		upd := make([]float64, len(cur))
		for i := range upd {
			upd[i] = cur[i] - prev[i]
		}
		if prevUpd != nil {
			tr.normDiffs = append(tr.normDiffs, stats.NormalizedDifference(prevUpd, upd))
		}
		prev, prevUpd = cur, upd
		var mask []bool
		if mgr, ok := sparse.UnwrapSyncer(engine.Clients()[0].Syncer()).(*core.Manager); ok {
			mask = mgr.PredictableMask()
		}
		for i, p := range tr.params {
			tr.values[i] = append(tr.values[i], cur[p])
			if mask != nil {
				tr.masks[i] = append(tr.masks[i], mask[p])
			}
		}
	}
	return tr, nil
}

// roundSeries is values over rounds 0, 1, ... as a series named name.
func roundSeries(name string, values []float64) *trace.Series {
	s := trace.NewSeries(name, "round", "value")
	for k, v := range values {
		s.Add(float64(k), v)
	}
	return s
}
