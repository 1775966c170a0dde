package fedsu

import (
	"context"
	"path/filepath"
	"testing"
)

func TestSimulationCheckpointRoundTrip(t *testing.T) {
	mk := func() *Simulation {
		sim, err := NewSimulation(SimulationConfig{
			Workload: "cnn", Scheme: "fedsu",
			Clients: 3, Rounds: 4, LocalIters: 2, BatchSize: 4,
			Samples: 128, ModelScale: 32, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	sim := mk()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := sim.RunRound(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "sim.ckpt")
	if err := sim.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want := sim.Engine().GlobalVector()

	// A brand-new simulation resumes from the checkpoint.
	fresh := mk()
	if err := fresh.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	got := fresh.Engine().GlobalVector()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored model differs at param %d", i)
		}
	}
	if _, err := fresh.RunRound(ctx, true); err != nil {
		t.Fatalf("resumed round: %v", err)
	}

	// Mismatched scheme must be rejected.
	other, err := NewSimulation(SimulationConfig{
		Workload: "cnn", Scheme: "fedavg",
		Clients: 3, Rounds: 1, Samples: 128, ModelScale: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCheckpoint(path); err == nil {
		t.Error("loading a fedsu checkpoint into a fedavg simulation must fail")
	}
}
