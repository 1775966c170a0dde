package exp

import (
	"context"
	"math"
	"testing"

	"fedsu/internal/tensor"
)

// TestDriversTrainTheRunOneRun: the trajectory drivers of Figs. 1, 2 and 6
// train the run their config describes, the one RunOne trains, at both
// precisions. Each used to write its own fl.Config, and they drifted:
// Fig 6 dropped Quantize under float32, and Figs. 1/2 trained at the
// real-corpus learning rate and a raw model scale.
func TestDriversTrainTheRunOneRun(t *testing.T) {
	ctx := context.Background()
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		cfg := microConfig()
		cfg.DType = dt
		cfg.Rounds = 3
		check := func(arm string, w Workload, scheme string, got []float64) {
			t.Helper()
			run, err := RunOne(ctx, cfg, w, scheme)
			if err != nil {
				t.Fatal(err)
			}
			want := run.Engine.GlobalVector()
			if len(got) != len(want) {
				t.Fatalf("%v %s: %d parameters, RunOne's run has %d", dt, arm, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%v %s: global differs from RunOne's at parameter %d: %v vs %v", dt, arm, i, got[i], want[i])
					return
				}
			}
		}
		for _, w := range []Workload{CNNWorkload(), DenseNetWorkload()} {
			_, _, e, err := trackTrajectories(ctx, cfg, w, "fedavg", 1)
			if err != nil {
				t.Fatal(err)
			}
			check("fig1/2 "+w.Name, w, "fedavg", e.GlobalVector())
		}
		for _, scheme := range []string{"fedsu", "fedavg"} {
			_, _, e, err := trackParams(ctx, cfg, CNNWorkload(), scheme, func(int) []int { return nil })
			if err != nil {
				t.Fatal(err)
			}
			check("fig6 "+scheme, CNNWorkload(), scheme, e.GlobalVector())
		}
	}
}
