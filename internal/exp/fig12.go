package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"fedsu/internal/fl"
	"fedsu/internal/stats"
	"fedsu/internal/trace"
)

// Fig1Result holds sampled per-parameter evolution trajectories under plain
// FedAvg training, the paper's Fig. 1 (linearity-period motivation).
type Fig1Result struct {
	// Trajectories maps workload name to the sampled parameter series
	// (x = round, y = parameter value).
	Trajectories map[string][]*trace.Series
}

// RunFig1 trains the CNN and DenseNet workloads under FedAvg and records
// the instantaneous values of randomly-selected scalar parameters.
func RunFig1(ctx context.Context, cfg Config, samplesPerModel int) (*Fig1Result, error) {
	res := &Fig1Result{Trajectories: map[string][]*trace.Series{}}
	for _, w := range []Workload{CNNWorkload(), DenseNetWorkload()} {
		series, _, _, err := trackTrajectories(ctx, cfg.named(w, "fedavg"), samplesPerModel)
		if err != nil {
			return nil, err
		}
		res.Trajectories[w.Name] = series
	}
	return res, nil
}

// trackTrajectories trains the run cfg names — the engine RunOne trains —
// round by round, recording the global value of sampled parameter
// indices each round. It also returns the per-round global update vectors
// for normalized-difference analysis, and the finished engine.
func trackTrajectories(ctx context.Context, cfg Config, nSamples int) ([]*trace.Series, [][]float64, *fl.Engine, error) {
	engine, err := NewEngine(cfg)
	if err != nil {
		return nil, nil, nil, err
	}

	size := len(engine.GlobalVector())
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	idx := make([]int, nSamples)
	for i := range idx {
		idx[i] = rng.Intn(size)
	}
	series := make([]*trace.Series, nSamples)
	for i, p := range idx {
		series[i] = trace.NewSeries(fmt.Sprintf("%s.param%d", cfg.Workload, p), "round", "value")
	}

	var updates [][]float64
	prev := engine.GlobalVector()
	for k := 0; k < cfg.Rounds; k++ {
		if _, err := engine.RunRound(ctx, false); err != nil {
			return nil, nil, nil, err
		}
		cur := engine.GlobalVector()
		upd := make([]float64, size)
		for i := range upd {
			upd[i] = cur[i] - prev[i]
		}
		updates = append(updates, upd)
		prev = cur
		for i, p := range idx {
			series[i].Add(float64(k), cur[p])
		}
	}
	return series, updates, engine, nil
}

// Fig2Result holds the cross-round normalized-difference measurements of
// Sec. III-A: the instantaneous series for the CNN and the CDFs for CNN and
// DenseNet.
type Fig2Result struct {
	// Instantaneous is ‖δ_{k+1} − δ_k‖/‖δ_k‖ per round for the CNN.
	Instantaneous *trace.Series
	// CDFs maps workload name to the CDF of normalized differences.
	CDFs map[string]*trace.Series
	// FracBelow005 maps workload to the fraction of updates with
	// normalized difference below 0.005 (the paper reports > 90 %).
	FracBelow map[string]float64
	// FracThreshold is the threshold used for FracBelow.
	FracThreshold float64
}

// RunFig2 measures the per-round normalized difference of the global
// updates while training the CNN and DenseNet workloads under FedAvg.
func RunFig2(ctx context.Context, cfg Config) (*Fig2Result, error) {
	res := &Fig2Result{
		CDFs:          map[string]*trace.Series{},
		FracBelow:     map[string]float64{},
		FracThreshold: 0.05,
	}
	for _, w := range []Workload{CNNWorkload(), DenseNetWorkload()} {
		_, updates, _, err := trackTrajectories(ctx, cfg.named(w, "fedavg"), 1)
		if err != nil {
			return nil, err
		}
		var nds []float64
		inst := trace.NewSeries(w.Name, "round", "normalized_difference")
		for k := 1; k < len(updates); k++ {
			nd := stats.NormalizedDifference(updates[k-1], updates[k])
			nds = append(nds, nd)
			inst.Add(float64(k), nd)
		}
		if w.Name == "cnn" {
			res.Instantaneous = inst
		}
		cdf := stats.NewCDF(nds)
		xs, ys := cdf.Points(50)
		s := trace.NewSeries(w.Name, "normalized_difference", "cdf")
		for i := range xs {
			s.Add(xs[i], ys[i])
		}
		res.CDFs[w.Name] = s
		below := 0
		for _, v := range nds {
			if v < res.FracThreshold {
				below++
			}
		}
		if len(nds) > 0 {
			res.FracBelow[w.Name] = float64(below) / float64(len(nds))
		}
	}
	return res, nil
}

// Report summarizes the Fig. 2 measurement.
func (r *Fig2Result) Report(w io.Writer) {
	fmt.Fprintln(w, "Fig 2: cross-round normalized difference of global updates")
	for name, frac := range r.FracBelow {
		fmt.Fprintf(w, "  %s: %.0f%% of updates below %.3f\n", name, 100*frac, r.FracThreshold)
	}
}
