package fl

import (
	"context"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
)

// TestStrategiesSurviveDropouts is failure injection against every
// strategy: with 25 % of clients crashing per round (abstaining from the
// collectives), training must keep running, the fleet must stay consistent,
// and even an all-dropout round must not wedge the barrier.
func TestStrategiesSurviveDropouts(t *testing.T) {
	for _, scheme := range StrategyNames() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			ds := data.Synthesize(data.SynthConfig{
				Name: "drop", Channels: 1, Size: 8, Classes: 3,
				Samples: 192, Noise: 0.2, Seed: 17,
			})
			cfg := defaultConfig(6)
			cfg.LocalIters, cfg.BatchSize = 3, 4
			cfg.EvalSamples = 32
			cfg.Seed = 5
			cfg.Netem = netem.DefaultConfig(6)
			cfg.Netem.DropoutProb = 0.25
			builder := func() *nn.Model {
				return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 3, Seed: 2}, 12)
			}
			factory, err := StrategyFactory(scheme)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(cfg, builder, ds, factory)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := e.Run(context.Background(), 12, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != 12 {
				t.Fatalf("stats = %d rounds", len(stats))
			}
			// Fleet consistency under churn of contributors.
			ref := e.Clients()[0].Model().Vector()
			for _, c := range e.Clients()[1:] {
				v := c.Model().Vector()
				for i := range ref {
					if v[i] != ref[i] {
						t.Fatalf("client %d diverged at param %d", c.ID, i)
					}
				}
			}
		})
	}
}

func TestEngineSurvivesTotalDropoutRound(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "total", Channels: 1, Size: 8, Classes: 2,
		Samples: 64, Noise: 0.2, Seed: 1,
	})
	cfg := defaultConfig(3)
	cfg.LocalIters, cfg.BatchSize = 1, 2
	cfg.EvalSamples = 8
	cfg.Netem = netem.DefaultConfig(3)
	cfg.Netem.DropoutProb = 1 // nobody ever returns
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 2, Seed: 1}, 4)
	}
	factory, _ := StrategyFactory("fedavg")
	e, err := NewEngine(cfg, builder, ds, factory)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.RunRound(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Participants != 0 {
		t.Errorf("participants = %d, want 0", st.Participants)
	}
	if st.Duration <= 0 {
		t.Error("wasted round must consume emulated time")
	}
}
