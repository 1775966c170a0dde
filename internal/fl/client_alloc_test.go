package fl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/par"
)

// TestTrainLocalSteadyStateAllocs pins a warm client's local round at
// sim_cnn's shape (the paper CNN at scale 4 on the EMNIST stand-in, 5
// iterations of batch 8): each step's batch is drawn into an arena tensor
// and the client's own labels, so the round allocates no more than its steps
// do — iters × the 1 KiB budget of nn's TestTrainStepSteadyStateAllocs.
// Held still for the same reasons as there: one worker, one P, no collector.
func TestTrainLocalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer par.SetWorkers(par.SetWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const iters, batch, stepBudget = 5, 8, 1024
	model := nn.NewPaperCNN(nn.ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 4, Seed: 7})
	shard := data.PartitionDirichlet(data.EMNIST(data.WithSamples(2048), data.WithSeed(38)), 4, 1.0, 7)[0]
	c := NewClient(0, model, opt.NewSGD(0.01, opt.WithWeightDecay(0.001)), shard, nil, 7)
	c.TrainLocal(0, iters, batch)
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r <= rounds; r++ {
		c.TrainLocal(r, iters, batch)
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B/round, budget %d B", perRound, iters*stepBudget)
	if perRound > iters*stepBudget {
		t.Errorf("a steady-state TrainLocal allocates %d B, budget %d B", perRound, iters*stepBudget)
	}
}
