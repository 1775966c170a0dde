package fl

import (
	"context"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/nn"
)

func popEngine(t *testing.T, mut func(*Config)) *Engine {
	t.Helper()
	ds := data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 512, Noise: 0.2, Jitter: 1, Seed: 11,
	})
	cfg := Config{
		NumClients:     16,
		LocalIters:     3,
		BatchSize:      8,
		LR:             0.05,
		WeightDecay:    0.0005,
		DirichletAlpha: 1.0,
		EvalSamples:    64,
		EvalBatch:      64,
		Seed:           3,
		Population:     64,
	}
	if mut != nil {
		mut(&cfg)
	}
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 24)
	}
	factory, err := StrategyFactory("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, builder, ds, factory)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnginePopulationTreeBitIdentity: the same population run folded
// through a fanout-8 tree and through the flat server must land on the
// same global parameters, to the bit, round after round — the tree is a
// systems optimization, never a numerics change.
func TestEnginePopulationTreeBitIdentity(t *testing.T) {
	flat := popEngine(t, nil)
	tree := popEngine(t, func(c *Config) { c.Fanout = 8 })

	const rounds = 3
	fs, err := flat.Run(context.Background(), rounds, rounds)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tree.Run(context.Background(), rounds, rounds)
	if err != nil {
		t.Fatal(err)
	}

	fv, tv := flat.GlobalVector(), tree.GlobalVector()
	if !sameBits(fv, tv) {
		t.Fatal("tree global deviates from flat global: the hierarchical fold changed the numerics")
	}

	for r := 0; r < rounds; r++ {
		f, tr := fs[r], ts[r]
		if f.CohortSize != 16 || tr.CohortSize != 16 {
			t.Fatalf("round %d cohort sizes %d/%d, want 16", r, f.CohortSize, tr.CohortSize)
		}
		// 16 members at fanout 8: 2 leaves + root = 2 tiers.
		if tr.Tiers != 2 {
			t.Fatalf("round %d tree tiers = %d, want 2", r, tr.Tiers)
		}
		if tr.LeafFolds != 2 || tr.ForwardedPartials != 2 {
			t.Fatalf("round %d leaf folds/partials = %d/%d, want 2/2", r, tr.LeafFolds, tr.ForwardedPartials)
		}
		// The tree root ingests partials, not the cohort's uploads.
		if tr.RootRxBytes >= f.RootRxBytes {
			t.Fatalf("round %d tree root rx %d !< flat root rx %d", r, tr.RootRxBytes, f.RootRxBytes)
		}
		if f.Participants <= 0 || f.Duration <= 0 {
			t.Fatalf("round %d flat stats missing timing: %+v", r, f)
		}
	}

	// Cohorts rotate: successive rounds must not sample the same members.
	c0 := flat.Population().SampleCohort(0, 16)
	c1 := flat.Population().SampleCohort(1, 16)
	same := true
	for i := range c0 {
		if c0[i] != c1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rounds 0 and 1 sampled identical cohorts")
	}
}

// TestEnginePopulationValidation: population-mode misconfigurations fail
// construction loudly, and fleet mutations are rejected at runtime.
func TestEnginePopulationValidation(t *testing.T) {
	fails := func(name string, mut func(*Config)) {
		t.Helper()
		ds := data.Synthesize(data.SynthConfig{
			Name: "tiny", Channels: 1, Size: 8, Classes: 4,
			Samples: 256, Noise: 0.2, Jitter: 1, Seed: 11,
		})
		cfg := Config{
			NumClients: 4, LocalIters: 1, BatchSize: 4, LR: 0.05,
			DirichletAlpha: 1.0, Seed: 3,
		}
		mut(&cfg)
		builder := func() *nn.Model {
			return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 8)
		}
		factory, err := StrategyFactory("fedavg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEngine(cfg, builder, ds, factory); err == nil {
			t.Errorf("%s: constructed without error", name)
		}
	}
	fails("fanout without population", func(c *Config) { c.Fanout = 4 })
	fails("population below cohort", func(c *Config) { c.Population = 2 })
	fails("fanout of 1", func(c *Config) { c.Population = 32; c.Fanout = 1 })
	fails("async population", func(c *Config) { c.Population = 32; c.Async = AsyncConfig{K: 2} })

	e := popEngine(t, nil)
	if _, err := e.AddClientFromDataset(8, 1); err == nil {
		t.Error("AddClient accepted in population mode")
	}
	if err := e.RemoveClient(0); err == nil {
		t.Error("RemoveClient accepted in population mode")
	}
}
