package fl

import (
	"context"
	"math"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
)

func TestEvalEverySkipsEvaluation(t *testing.T) {
	e, _ := tinyEngine(t, "fedavg", 0)
	stats, err := e.Run(context.Background(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds 0,1 skipped; round 2 (i=2 → (i+1)%3==0) evaluated; 3 skipped;
	// 4 evaluated (final).
	wantEval := []bool{false, false, true, false, true}
	for i, st := range stats {
		got := st.Accuracy >= 0
		if got != wantEval[i] {
			t.Errorf("round %d evaluated=%v, want %v", i, got, wantEval[i])
		}
	}
}

func TestWireParamsScalesRoundTime(t *testing.T) {
	build := func(wire int) float64 {
		ds := data.Synthesize(data.SynthConfig{
			Name: "w", Channels: 1, Size: 8, Classes: 2,
			Samples: 64, Noise: 0.2, Seed: 1,
		})
		cfg := defaultConfig(2)
		cfg.LocalIters, cfg.BatchSize = 1, 2
		cfg.EvalSamples = 8
		cfg.WireParams = wire
		builder := func() *nn.Model {
			return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 2, Seed: 1}, 4)
		}
		factory, err := StrategyFactory("fedavg")
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, builder, ds, factory)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.RunRound(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		return st.Duration
	}
	small := build(10_000)
	big := build(10_000_000)
	if big <= small {
		t.Errorf("paper-scale wire params (%.2fs) must cost more than small (%.2fs)", big, small)
	}
	// 10M params at 13.7 Mbps should take minutes-scale rounds like the
	// paper's ResNet (~150 s).
	if big < 30 || big > 600 {
		t.Errorf("10M-param round = %.1fs, want paper-like magnitude (30-600s)", big)
	}
}

// TestFedSUAccuracyParity is the paper's core claim at test scale: FedSU's
// final accuracy must not be materially below FedAvg's on the same
// workload, seeds, and round budget.
func TestFedSUAccuracyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	_, fedavg := tinyEngine(t, "fedavg", 30)
	_, fedsu := tinyEngine(t, "fedsu", 30)
	accOf := func(stats []RoundStats) float64 {
		last := math.NaN()
		for _, st := range stats {
			if st.Accuracy >= 0 {
				last = st.Accuracy
			}
		}
		return last
	}
	fa, fs := accOf(fedavg), accOf(fedsu)
	if fs < fa-0.1 {
		t.Errorf("FedSU accuracy %.3f materially below FedAvg %.3f", fs, fa)
	}
}

func TestEngineLatencyContributes(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "lat", Channels: 1, Size: 8, Classes: 2,
		Samples: 64, Noise: 0.2, Seed: 1,
	})
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 2, Seed: 1}, 4)
	}
	factory, _ := StrategyFactory("fedavg")
	dur := func(latency float64) float64 {
		cfg := defaultConfig(2)
		cfg.LocalIters, cfg.BatchSize, cfg.EvalSamples = 1, 2, 8
		cfg.Netem = netem.DefaultConfig(2)
		cfg.Netem.LatencySeconds = latency
		e, err := NewEngine(cfg, builder, ds, factory)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.RunRound(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		return st.Duration
	}
	if d1, d2 := dur(0.01), dur(5); d2-d1 < 9 {
		t.Errorf("5s latency should add ~10s (2 legs): %v vs %v", d1, d2)
	}
}
