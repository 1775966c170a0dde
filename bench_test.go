package fedsu

// This file is the benchmark harness mapping one testing.B benchmark to
// every table and figure of the paper's evaluation (Sec. VI), plus the
// micro-benchmarks and design-choice ablations called out in DESIGN.md §5.
//
// Each experiment benchmark runs its full driver at a reduced emulation
// scale and reports the headline quantity (time-to-accuracy, sparsification
// ratio, linear-share, ...) as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the reproduced numbers. For
// publication-scale runs use cmd/fedsu-bench with -scale standard.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/nn"
	"fedsu/internal/sparse"
	"fedsu/internal/tensor"
)

// benchConfig is the reduced scale used by the harness benchmarks.
func benchConfig() exp.Config {
	cfg := exp.FastConfig()
	cfg.Clients = 4
	cfg.Rounds = 24
	cfg.LocalIters = 3
	cfg.BatchSize = 8
	cfg.Samples = 512
	cfg.ModelScale = 16
	cfg.EvalEvery = 4
	return cfg
}

func BenchmarkFig1ParameterTrajectories(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 10
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig1(context.Background(), cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trajectories) != 2 {
			b.Fatal("expected trajectories for cnn and densenet121")
		}
	}
}

func BenchmarkFig2NormalizedDifference(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 10
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FracBelow["cnn"]
	}
	b.ReportMetric(frac, "frac-below-0.05")
}

func BenchmarkTable1TimeToAccuracy(b *testing.B) {
	cfg := benchConfig()
	ws := []exp.Workload{exp.CNNWorkload()}
	var fedsuT, fedavgT float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunEndToEnd(context.Background(), cfg, ws, exp.Schemes())
		if err != nil {
			b.Fatal(err)
		}
		fedsuT, _, _ = res.Runs["cnn"]["fedsu"].TimeToAccuracy(0.30)
		fedavgT, _, _ = res.Runs["cnn"]["fedavg"].TimeToAccuracy(0.30)
	}
	b.ReportMetric(fedsuT, "fedsu-s-to-acc")
	b.ReportMetric(fedavgT, "fedavg-s-to-acc")
}

func BenchmarkFig5SparsificationRatio(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 32
	var fedsuRatio, apfRatio float64
	for i := 0; i < b.N; i++ {
		rs, err := exp.RunOne(context.Background(), cfg, exp.CNNWorkload(), "fedsu")
		if err != nil {
			b.Fatal(err)
		}
		ra, err := exp.RunOne(context.Background(), cfg, exp.CNNWorkload(), "apf")
		if err != nil {
			b.Fatal(err)
		}
		fedsuRatio = rs.MeanSparsification()
		apfRatio = ra.MeanSparsification()
	}
	b.ReportMetric(100*fedsuRatio, "fedsu-sparse-%")
	b.ReportMetric(100*apfRatio, "apf-sparse-%")
}

func BenchmarkFig6TrajectoryApproximation(b *testing.B) {
	cfg := benchConfig()
	var approxErr float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6(context.Background(), cfg, exp.CNNWorkload())
		if err != nil {
			b.Fatal(err)
		}
		approxErr = res.ApproximationError()
	}
	b.ReportMetric(approxErr, "approx-error")
}

func BenchmarkFig7LinearShare(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 32
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(context.Background(), cfg, []exp.Workload{exp.CNNWorkload()})
		if err != nil {
			b.Fatal(err)
		}
		share = res.ShareLinearMajority["cnn"]
	}
	b.ReportMetric(100*share, "linear-majority-%")
}

func BenchmarkFig8Ablation(b *testing.B) {
	cfg := benchConfig()
	cfg.FedSU.FixedPeriod = 8
	cfg.FedSU.LaunchProb = 0.01
	var fullAcc, v2Acc float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig8(context.Background(), cfg, []exp.Workload{exp.CNNWorkload()})
		if err != nil {
			b.Fatal(err)
		}
		fullAcc = res.FinalAccuracy["cnn"]["fedsu"]
		v2Acc = res.FinalAccuracy["cnn"]["fedsu-v2"]
	}
	b.ReportMetric(fullAcc, "fedsu-final-acc")
	b.ReportMetric(v2Acc, "v2-final-acc")
}

func BenchmarkFig9SensitivityTR(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 12
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig9(context.Background(), cfg, []exp.Workload{exp.CNNWorkload()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SensitivityTS(b *testing.B) {
	cfg := benchConfig()
	cfg.Rounds = 12
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunFig10(context.Background(), cfg, []exp.Workload{exp.CNNWorkload()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Overhead(b *testing.B) {
	cfg := benchConfig()
	var memMB float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTable2(context.Background(), cfg,
			[]exp.Workload{exp.CNNWorkload()}, map[string]float64{"cnn": 7.0})
		if err != nil {
			b.Fatal(err)
		}
		memMB = res.Rows[0].MemoryInflationMB
	}
	b.ReportMetric(memMB, "mem-inflation-MB")
}

// --- Micro-benchmarks -------------------------------------------------

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := nn.NewConv2D(rng, 16, 32, 3, nn.WithPadding(1))
	x := tensor.New(8, 16, 14, 14)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkManagerSync(b *testing.B) {
	const size = 100_000
	agg := passAgg{}
	mgr, err := core.NewManager(0, size, agg, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	vec := make([]float64, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range vec {
			vec[j] = float64(j%31)*0.1 + 0.001*float64(i)
		}
		if _, _, err := mgr.Sync(i, vec, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "params")
}

func BenchmarkFedAvgSyncBaseline(b *testing.B) {
	const size = 100_000
	s := sparse.NewFedAvg(0, size, passAgg{})
	vec := make([]float64, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Sync(i, vec, true); err != nil {
			b.Fatal(err)
		}
	}
}

type passAgg struct{}

func (passAgg) AggregateModel(_, _ int, v []float64) ([]float64, error) { return v, nil }
func (passAgg) AggregateError(_, _ int, v []float64) ([]float64, error) { return v, nil }

// --- Design-choice ablations (DESIGN.md §5) ----------------------------

// BenchmarkAblationTheta sweeps the EMA decay factor of the oscillation
// ratio and reports the resulting sparsification.
func BenchmarkAblationTheta(b *testing.B) {
	for _, theta := range []float64{0.5, 0.9, 0.95} {
		b.Run(fmt.Sprintf("theta=%v", theta), func(b *testing.B) {
			cfg := benchConfig()
			cfg.FedSU.Theta = theta
			var ratio float64
			for i := 0; i < b.N; i++ {
				run, err := exp.RunOne(context.Background(), cfg, exp.CNNWorkload(), "fedsu")
				if err != nil {
					b.Fatal(err)
				}
				ratio = run.MeanSparsification()
			}
			b.ReportMetric(100*ratio, "sparse-%")
		})
	}
}

// BenchmarkAblationSlope compares the smoothed slope estimator against the
// raw last-round slope (Sec. IV-B as literally stated).
func BenchmarkAblationSlope(b *testing.B) {
	for _, raw := range []bool{false, true} {
		name := "smoothed"
		if raw {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Rounds = 32
			cfg.FedSU.RawSlope = raw
			var ratio float64
			for i := 0; i < b.N; i++ {
				run, err := exp.RunOne(context.Background(), cfg, exp.CNNWorkload(), "fedsu")
				if err != nil {
					b.Fatal(err)
				}
				ratio = run.MeanSparsification()
			}
			b.ReportMetric(100*ratio, "sparse-%")
		})
	}
}

// BenchmarkTheorem1Schedule compares constant learning rate against the
// 1/√T schedule satisfying Theorem 1's convergence conditions (Eq. 13),
// reporting the final training loss of each.
func BenchmarkTheorem1Schedule(b *testing.B) {
	for _, warm := range []int{0, 50} {
		name := "constant"
		if warm > 0 {
			name = "inverse-sqrt"
		}
		b.Run(name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				ds := data.Synthesize(data.SynthConfig{
					Name: "thm", Channels: 1, Size: 8, Classes: 4,
					Samples: 512, Noise: 0.2, Jitter: 1, Seed: 11,
				})
				cfg := fl.DefaultConfig(4)
				cfg.LocalIters, cfg.BatchSize = 5, 8
				cfg.LR = 0.05
				cfg.EvalSamples = 64
				cfg.LRDecayWarm = warm
				builder := func() *nn.Model {
					return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 24)
				}
				factory, err := fl.StrategyFactory("fedsu")
				if err != nil {
					b.Fatal(err)
				}
				e, err := fl.NewEngine(cfg, builder, ds, factory)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := e.Run(context.Background(), 20, 20)
				if err != nil {
					b.Fatal(err)
				}
				final = stats[len(stats)-1].TrainLoss
			}
			b.ReportMetric(final, "final-train-loss")
		})
	}
}
