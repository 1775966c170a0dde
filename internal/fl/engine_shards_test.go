package fl

import (
	"context"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/nn"
)

// TestNewEngineWithShardsBitIdentical verifies that supplying the partition
// NewEngine would have computed itself reproduces the run bit-exactly — the
// contract the experiment grid's memoized-partition cache relies on. The
// same shards are shared by two engines at once, so under -race this also
// checks concurrent read-sharing of one partition.
func TestNewEngineWithShardsBitIdentical(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 256, Noise: 0.2, Jitter: 1, Seed: 11,
	})
	cfg := Config{
		NumClients:     3,
		LocalIters:     3,
		BatchSize:      8,
		LR:             0.05,
		WeightDecay:    0.0005,
		DirichletAlpha: 1.0,
		EvalSamples:    64,
		EvalBatch:      32,
		Seed:           3,
	}
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 16)
	}
	factory, err := StrategyFactory("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	shards := data.PartitionDirichlet(ds, cfg.NumClients, cfg.DirichletAlpha, cfg.Seed)

	run := func(sh []*data.Subset) []float64 {
		var e *Engine
		var err error
		if sh == nil {
			e, err = NewEngine(cfg, builder, ds, factory)
		} else {
			e, err = NewEngineWithShards(cfg, builder, ds, sh, factory)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), 2, 1); err != nil {
			t.Fatal(err)
		}
		return e.GlobalVector()
	}

	want := run(nil)
	got := run(shards)
	got2 := run(shards) // second engine reusing the very same shards
	for i := range want {
		if want[i] != got[i] || want[i] != got2[i] {
			t.Fatalf("param %d diverges: internal=%v shared=%v shared2=%v", i, want[i], got[i], got2[i])
		}
	}
}

// TestNewEngineWithShardsLengthMismatch pins the shards/clients guard.
func TestNewEngineWithShardsLengthMismatch(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 64, Noise: 0.2, Jitter: 1, Seed: 11,
	})
	cfg := defaultConfig(4)
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 16)
	}
	factory, err := StrategyFactory("fedavg")
	if err != nil {
		t.Fatal(err)
	}
	shards := data.PartitionDirichlet(ds, 3, cfg.DirichletAlpha, cfg.Seed)
	if _, err := NewEngineWithShards(cfg, builder, ds, shards, factory); err == nil {
		t.Fatal("3 shards for 4 clients must error")
	}
}
