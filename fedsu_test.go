package fedsu

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestPublicManagerStandalone(t *testing.T) {
	agg := meanAgg{n: 1}
	mgr, err := NewManager(0, 3, &agg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		local := []float64{float64(k), 0.5 * float64(k), -1}
		out, tr, err := mgr.Sync(k, local, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("round %d: out len %d", k, len(out))
		}
		if tr.TotalParams != 3 {
			t.Fatalf("round %d: traffic %+v", k, tr)
		}
	}
	if mgr.PredictableCount() == 0 {
		t.Error("linear parameters should become predictable through the public API")
	}
}

// meanAgg is a trivial single-client aggregator for the facade test.
type meanAgg struct{ n int }

func (m *meanAgg) AggregateModel(_, _ int, v []float64) ([]float64, error) { return v, nil }
func (m *meanAgg) AggregateError(_, _ int, v []float64) ([]float64, error) { return v, nil }

func TestPublicBaselines(t *testing.T) {
	agg := &meanAgg{n: 1}
	for _, s := range []Syncer{
		NewFedAvg(0, 2, agg),
		NewCMFL(0, 2, agg, 0.8),
		NewAPF(0, 2, agg, 0.05),
	} {
		if _, _, err := s.Sync(0, []float64{1, 2}, true); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{
		Workload: "cnn", Scheme: "fedsu",
		Clients: 3, Rounds: 6, LocalIters: 2, BatchSize: 4,
		Samples: 128, ModelScale: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("stats = %d rounds", len(stats))
	}
	if stats[len(stats)-1].SimTime <= 0 {
		t.Error("emulated time must advance")
	}
}

// TestSimulationHonoursPartialNetem: a Netem override that leaves
// NumClients zero is used as given, with NumClients and Seed filled from
// the run — not silently replaced by the 13.7 Mbps testbed defaults.
func TestSimulationHonoursPartialNetem(t *testing.T) {
	meanRound := func(net NetworkConfig) float64 {
		t.Helper()
		sim, err := NewSimulation(SimulationConfig{
			Workload: "cnn", Scheme: "fedavg",
			Clients: 3, Rounds: 2, LocalIters: 1, BatchSize: 4,
			Samples: 128, ModelScale: 32, Seed: 1, Netem: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].SimTime / float64(len(stats))
	}
	partial := NetworkConfig{ClientUplinkMbps: 1, ClientDownlinkMbps: 1, ServerBandwidthMbps: 10_000, Participation: 1}
	complete := partial
	complete.NumClients, complete.Seed = 3, 1
	got, want, testbed := meanRound(partial), meanRound(complete), meanRound(NetworkConfig{})
	if got != want {
		t.Errorf("partial netem: %.3f s/round, the same links spelled out in full: %.3f s/round", got, want)
	}
	if got < 5*testbed {
		t.Errorf("1 Mbps links: %.3f s/round, barely slower than the 13.7 Mbps testbed's %.3f", got, testbed)
	}
}

func TestSimulationValidation(t *testing.T) {
	if _, err := NewSimulation(SimulationConfig{Workload: "nope", Scheme: "fedsu"}); err == nil {
		t.Error("unknown workload must fail")
	}
	if _, err := NewSimulation(SimulationConfig{Workload: "cnn", Scheme: "nope"}); err == nil {
		t.Error("unknown scheme must fail")
	}
}

func TestNamesExposed(t *testing.T) {
	if len(StrategyNames()) != 7 {
		t.Errorf("StrategyNames = %v", StrategyNames())
	}
	if got := fmt.Sprint(WorkloadNames()); got != "[cnn densenet121 resnet18]" {
		t.Errorf("WorkloadNames = %s, want the paper's three", got)
	}
}

func TestCoordinatorRoundTrip(t *testing.T) {
	l, err := StartCoordinator("127.0.0.1:0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, err := DialCoordinator(l.Addr().String(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialCoordinator(l.Addr().String(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Two managers over real TCP behave like one fleet.
	ma, err := NewManager(a.ClientID(), 2, a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewManager(b.ClientID(), 2, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		var wg sync.WaitGroup
		var oa, ob []float64
		wg.Add(2)
		go func() {
			defer wg.Done()
			oa, _, _ = ma.Sync(k, []float64{float64(k), 1}, true)
		}()
		go func() {
			defer wg.Done()
			ob, _, _ = mb.Sync(k, []float64{float64(k) + 2, 3}, true)
		}()
		wg.Wait()
		if oa[0] != ob[0] || oa[1] != ob[1] {
			t.Fatalf("round %d: fleets disagree: %v vs %v", k, oa, ob)
		}
	}
}
