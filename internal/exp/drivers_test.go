package exp

import (
	"context"
	"math"
	"testing"
)

// TestDriversTrainTheRunOneRun: the trajectory drivers of Figs. 1, 2 and 6
// train the run their config describes, the one RunOne trains. Each used to
// write its own fl.Config, and they drifted: Figs. 1/2 trained at the
// real-corpus learning rate and a raw model scale.
func TestDriversTrainTheRunOneRun(t *testing.T) {
	ctx := context.Background()
	cfg := microConfig()
	cfg.Rounds = 3
	check := func(arm string, w Workload, scheme string, got []float64) {
		t.Helper()
		run, err := RunOne(ctx, cfg.named(w, scheme))
		if err != nil {
			t.Fatal(err)
		}
		want := run.Engine.GlobalVector()
		if len(got) != len(want) {
			t.Fatalf("%s: %d parameters, RunOne's run has %d", arm, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: global differs from RunOne's at parameter %d: %v vs %v", arm, i, got[i], want[i])
				return
			}
		}
	}
	for _, w := range []Workload{CNNWorkload(), DenseNetWorkload()} {
		tr, err := track(ctx, cfg.named(w, "fedavg"), func(int) []int { return nil })
		if err != nil {
			t.Fatal(err)
		}
		check("fig1/2 "+w.Name, w, "fedavg", tr.engine.GlobalVector())
	}
	for _, scheme := range []string{"fedsu", "fedavg"} {
		tr, err := track(ctx, cfg.named(CNNWorkload(), scheme), func(int) []int { return nil })
		if err != nil {
			t.Fatal(err)
		}
		check("fig6 "+scheme, CNNWorkload(), scheme, tr.engine.GlobalVector())
	}
}
