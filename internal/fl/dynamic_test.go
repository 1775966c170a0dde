package fl

import (
	"context"
	"fmt"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/nn"
)

func TestAddClientMidTraining(t *testing.T) {
	e, _ := tinyEngine(t, "fedsu", 10)
	ds := data.Synthesize(data.SynthConfig{
		Name: "extra", Channels: 1, Size: 8, Classes: 4,
		Samples: 64, Noise: 0.2, Seed: 99,
	})
	shard := data.NewSubset(ds, []int{0, 1, 2, 3, 4, 5, 6, 7})
	joiner, err := e.AddClient(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Clients()) != 5 {
		t.Fatalf("fleet size = %d, want 5", len(e.Clients()))
	}

	// The joiner's model and mask state must match the fleet's before the
	// next round.
	ref := e.Clients()[0].Model().Vector()
	jv := joiner.Model().Vector()
	for i := range ref {
		if ref[i] != jv[i] {
			t.Fatalf("joiner model differs at %d", i)
		}
	}
	donor := e.Clients()[0].Syncer().(*core.Manager)
	jm := joiner.Syncer().(*core.Manager)
	dm, jmask := donor.PredictableMask(), jm.PredictableMask()
	for i := range dm {
		if dm[i] != jmask[i] {
			t.Fatalf("joiner mask differs at %d", i)
		}
	}

	// Training continues and the fleet stays consistent.
	if _, err := e.RunRound(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	ref = e.Clients()[0].Model().Vector()
	for _, c := range e.Clients()[1:] {
		v := c.Model().Vector()
		for i := range ref {
			if v[i] != ref[i] {
				t.Fatalf("post-join round: client %d diverged at %d", c.ID, i)
			}
		}
	}
}

// TestAddClientV2JoinerMaskAgrees: under fedsu-v2 the joiner must launch the
// parameters the fleet launches from its first round on. The launch lottery
// is a pure function of (seed, round, parameter); while it was a random
// stream the snapshot did not carry, the joiner drew from the seed's start
// while the fleet was mid-stream, and the next model collective saw
// submissions of different lengths.
func TestAddClientV2JoinerMaskAgrees(t *testing.T) {
	e, _ := tinyEngine(t, "fedsu-v2", 8)
	ds := data.Synthesize(data.SynthConfig{
		Name: "extra", Channels: 1, Size: 8, Classes: 4,
		Samples: 64, Noise: 0.2, Seed: 99,
	})
	joiner, err := e.AddClient(data.NewSubset(ds, []int{0, 1, 2, 3, 4, 5, 6, 7}))
	if err != nil {
		t.Fatal(err)
	}
	donor := e.Clients()[0]
	launched := 0
	for r := 0; r < 4; r++ {
		if _, err := e.RunRound(context.Background(), false); err != nil {
			t.Fatalf("round %d after the join: %v", r, err)
		}
		dm := donor.Syncer().(*core.Manager).PredictableMask()
		jm := joiner.Syncer().(*core.Manager).PredictableMask()
		dv, jv := donor.Model().Vector(), joiner.Model().Vector()
		for i := range dm {
			if dm[i] != jm[i] {
				t.Fatalf("round %d after the join: donor=%v joiner=%v at parameter %d", r, dm[i], jm[i], i)
			}
			if dv[i] != jv[i] {
				t.Fatalf("round %d after the join: models differ at parameter %d", r, i)
			}
			if dm[i] {
				launched++
			}
		}
	}
	if launched == 0 {
		t.Fatal("vacuous run: the lottery launched nothing")
	}
}

// TestJoinerIsBuiltLikeTheFleet: a mid-run joiner is an ordinary client
// that receives the fleet's model and mask (PAPER.md §V). Built by a second
// recipe, it uploaded every round ungated under an event trigger and
// trained at a constant rate while the fleet's learning rate decayed.
func TestJoinerIsBuiltLikeTheFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"event-trigger", func(c *Config) { c.EventThreshold = 0.5 }},
		{"lr-decay", func(c *Config) { c.LRDecayWarm = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := data.Synthesize(data.SynthConfig{
				Name: "tiny", Channels: 1, Size: 8, Classes: 4,
				Samples: 256, Noise: 0.2, Jitter: 1, Seed: 11,
			})
			cfg := Config{
				NumClients: 3, LocalIters: 4, BatchSize: 8, LR: 0.05, WeightDecay: 0.0005,
				ProxMu: 0.01, DirichletAlpha: 1.0, EvalSamples: 32, Seed: 3,
			}
			tc.mut(&cfg)
			builder := func() *nn.Model {
				return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 16)
			}
			factory, err := StrategyFactory("fedsu")
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(cfg, builder, ds, factory)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := e.RunRound(ctx, false); err != nil {
				t.Fatal(err)
			}
			fleet := e.Clients()[0]
			// A fleet client's rate after its first round; the joiner must
			// reach the same rate after its own first round.
			wantLR := fleet.opt.LR()
			joiner, err := e.AddClientFromDataset(32, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunRound(ctx, false); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%T", joiner.Syncer()), fmt.Sprintf("%T", fleet.Syncer()); got != want {
				t.Errorf("joiner syncs through %s, the fleet through %s", got, want)
			}
			if got := joiner.opt.LR(); got != wantLR {
				t.Errorf("joiner's rate after one round = %v, a fleet client's = %v", got, wantLR)
			}
			if joiner.proxMu != fleet.proxMu {
				t.Errorf("joiner's proximal term = %v, the fleet's = %v", joiner.proxMu, fleet.proxMu)
			}
		})
	}
}

func TestRemoveClient(t *testing.T) {
	e, _ := tinyEngine(t, "fedavg", 4)
	id := e.Clients()[2].ID
	if err := e.RemoveClient(id); err != nil {
		t.Fatal(err)
	}
	if len(e.Clients()) != 3 {
		t.Fatalf("fleet size = %d, want 3", len(e.Clients()))
	}
	if err := e.RemoveClient(999); err == nil {
		t.Error("removing unknown id must fail")
	}
	if _, err := e.RunRound(context.Background(), false); err != nil {
		t.Fatalf("round after removal: %v", err)
	}
}

func TestRemoveAllClientsFails(t *testing.T) {
	e, _ := tinyEngine(t, "fedavg", 2)
	ids := []int{}
	for _, c := range e.Clients() {
		ids = append(ids, c.ID)
	}
	for i, id := range ids {
		err := e.RemoveClient(id)
		if i == len(ids)-1 {
			if err == nil {
				t.Error("removing the last client must fail")
			}
		} else if err != nil {
			t.Fatal(err)
		}
	}
}
