package fl

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
)

func tinyEngine(t *testing.T, strategy string, rounds int) (*Engine, []RoundStats) {
	t.Helper()
	ds := data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 4,
		Samples: 512, Noise: 0.2, Jitter: 1, Seed: 11,
	})
	cfg := Config{
		NumClients:     4,
		LocalIters:     5,
		BatchSize:      8,
		LR:             0.05,
		WeightDecay:    0.0005,
		DirichletAlpha: 1.0,
		EvalSamples:    128,
		EvalBatch:      64,
		Seed:           3,
	}
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 24)
	}
	factory, err := StrategyFactory(strategy)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, builder, ds, factory)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(context.Background(), rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats
}

func TestEngineFedAvgLearns(t *testing.T) {
	_, stats := tinyEngine(t, "fedavg", 12)
	first, last := stats[0], stats[len(stats)-1]
	if last.Accuracy <= 0.5 {
		t.Errorf("final accuracy = %v, want > 0.5", last.Accuracy)
	}
	if last.Loss >= first.Loss {
		t.Errorf("loss did not decrease: %v → %v", first.Loss, last.Loss)
	}
	if last.SimTime <= 0 || last.Duration <= 0 {
		t.Error("simulated time must advance")
	}
}

func TestEngineAllStrategiesRun(t *testing.T) {
	for _, s := range StrategyNames() {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			e, stats := tinyEngine(t, s, 8)
			if len(stats) != 8 {
				t.Fatalf("got %d round stats", len(stats))
			}
			if e.Strategy() != s {
				t.Errorf("Strategy() = %q, want %q", e.Strategy(), s)
			}
			for _, st := range stats {
				if st.Traffic.UpBytes <= 0 || st.Traffic.DownBytes <= 0 {
					t.Errorf("round %d: no traffic recorded", st.Round)
				}
				if math.IsNaN(st.TrainLoss) {
					t.Errorf("round %d: NaN train loss", st.Round)
				}
			}
		})
	}
}

// TestEngineClientsStayConsistent: after every round all clients hold the
// identical model — the invariant FedSU's client-local mask bookkeeping
// depends on — under every strategy, in the fixed fleet and in population
// mode flat and under a tree, while the 70 % quorum churns. On equal
// devices the round's jitter alone picks the stragglers, so the participant
// set changes from round to round and the abstention path runs; the quorum
// floor is one, so every round has a participant.
func TestEngineClientsStayConsistent(t *testing.T) {
	for _, s := range StrategyNames() {
		s := s
		t.Run(s, func(t *testing.T) {
			t.Parallel()
			for _, topo := range []string{"fixed", "pop-flat", "pop-tree"} {
				topo := topo
				t.Run(topo, func(t *testing.T) {
					t.Parallel()
					checkClientsStayConsistent(t, s, topo)
				})
			}
		})
	}
}

// checkClientsStayConsistent runs twelve rounds of strategy s on topology
// topo (fixed, pop-flat or pop-tree) and checks TestEngineClientsStayConsistent's
// invariants after each.
func checkClientsStayConsistent(t *testing.T, s, topo string) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "churn", Channels: 1, Size: 8, Classes: 3,
		Samples: 192, Noise: 0.2, Seed: 17,
	})
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 3, Seed: 2}, 12)
	}
	cfg := defaultConfig(6)
	cfg.LocalIters, cfg.BatchSize = 3, 4
	cfg.EvalSamples = 32
	cfg.Seed = 5
	switch topo {
	case "fixed":
		cfg.Netem = netem.DefaultConfig(6)
		cfg.Netem.ComputeHeterogeneity = 0
	case "pop-flat":
		cfg.Population = 24
	case "pop-tree":
		cfg.Population, cfg.Fanout = 24, 4
	}
	factory, err := StrategyFactory(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, builder, ds, factory)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]bool{}
	abstained := false
	for k := 0; k < 12; k++ {
		st, err := e.RunRound(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		if st.Participants < 1 {
			t.Fatalf("round %d aggregated %d participants", k, st.Participants)
		}
		abstained = abstained || st.Participants < cfg.NumClients
		sets[participantSet(e.server)] = true
		ref := e.Clients()[0].Model().Vector()
		for _, c := range e.Clients()[1:] {
			v := c.Model().Vector()
			for i := range ref {
				if v[i] != ref[i] {
					t.Fatalf("round %d: client %d diverged from client 0 at param %d: %v vs %v",
						k, c.ID, i, v[i], ref[i])
				}
			}
		}
	}
	if len(sets) < 2 {
		t.Fatalf("one participant set in 12 rounds, %v: the quorum never churned", sets)
	}
	if !abstained {
		t.Fatal("every client took part in every round: the abstention path never ran")
	}
}

// participantSet is the current round's participant ids, sorted.
func participantSet(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int
	for id, in := range s.participants {
		if in {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

func TestEngineFedSUSparsifies(t *testing.T) {
	_, stats := tinyEngine(t, "fedsu", 40)
	// By late training a meaningful share of parameters should be
	// speculative and the byte-level savings positive.
	tail := stats[len(stats)-5:]
	maxPred, maxRatio := 0.0, 0.0
	for _, st := range tail {
		if st.PredictableFraction > maxPred {
			maxPred = st.PredictableFraction
		}
		if st.SparsificationRatio > maxRatio {
			maxRatio = st.SparsificationRatio
		}
	}
	if maxPred == 0 {
		t.Error("FedSU never marked any parameter predictable")
	}
	if maxRatio <= 0 {
		t.Error("FedSU achieved no byte savings")
	}
}

func TestEngineParticipationQuorum(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "tiny", Channels: 1, Size: 8, Classes: 2,
		Samples: 128, Noise: 0.2, Seed: 1,
	})
	cfg := defaultConfig(10)
	cfg.LocalIters = 2
	cfg.BatchSize = 4
	cfg.EvalSamples = 32
	cfg.Netem = netem.DefaultConfig(10)
	cfg.Netem.Participation = 0.7
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 2, Seed: 2}, 8)
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
	if st.Participants != 7 {
		t.Errorf("participants = %d, want 7 of 10", st.Participants)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	ds := data.Synthesize(data.SynthConfig{
		Name: "x", Channels: 1, Size: 4, Classes: 2, Samples: 16, Noise: 0.1, Seed: 1,
	})
	builder := func() *nn.Model {
		return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 4, NumClasses: 2, Seed: 1}, 4)
	}
	factory, _ := StrategyFactory("fedavg")
	bad := []Config{
		{NumClients: 0, LocalIters: 1, BatchSize: 1},
		{NumClients: 2, LocalIters: 0, BatchSize: 1},
		{NumClients: 2, LocalIters: 1, BatchSize: 0},
	}
	for _, cfg := range bad {
		if _, err := NewEngine(cfg, builder, ds, factory); err == nil {
			t.Errorf("config %+v should fail validation", cfg)
		}
	}
}

func TestStrategyFactoryUnknown(t *testing.T) {
	if _, err := StrategyFactory("bogus"); err == nil {
		t.Error("unknown strategy must error")
	}
}

// defaultConfig returns the paper's training hyper-parameters at a reduced
// client count suitable for in-process emulation.
func defaultConfig(numClients int) Config {
	return Config{
		NumClients:     numClients,
		LocalIters:     50,
		BatchSize:      32,
		LR:             0.01,
		WeightDecay:    0.001,
		DirichletAlpha: 1.0,
		EvalSamples:    512,
		EvalBatch:      64,
		Seed:           1,
	}
}
