package fl

import (
	"context"
	"fmt"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/nn"
	"fedsu/internal/par"
)

// TestEngineDeterministicAcrossWorkers: a synchronous run is bit-identical
// at 1, 2 and 7 par workers — local training, the barrier or tree fold and
// every strategy's state alike — for each strategy and fleet shape, on the
// default wire and through the topk,q4,rans and rans chains (per-client
// encodes, the delta-domain fold and the error-feedback residual).
// Every round's stats and the final global must equal the single-worker
// run's. The 4.4k-parameter MLP spans several fold and FedSU commit chunks,
// so the sharded passes do fan out.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const rounds, evalEvery = 4, 2
	for _, s := range StrategyNames() {
		for _, topo := range []string{"fixed", "pop-flat", "pop-tree"} {
			for _, spec := range []string{"", "topk,q4,rans", "rans"} {
				s, topo, spec := s, topo, spec
				t.Run(fmt.Sprintf("%s/%s/%q", s, topo, spec), func(t *testing.T) {
					run := func(workers int) (string, []float64) {
						defer par.SetWorkers(par.SetWorkers(workers))
						cfg := Config{
							NumClients: 4, LocalIters: 3, BatchSize: 8, LR: 0.05, WeightDecay: 0.0005,
							DirichletAlpha: 1.0, EvalSamples: 32, EvalBatch: 32, Seed: 3, Compress: spec,
						}
						switch topo {
						case "pop-flat":
							cfg.NumClients, cfg.Population = 10, 40
						case "pop-tree":
							cfg.NumClients, cfg.Population, cfg.Fanout = 10, 40, 8
						}
						opts := core.DefaultOptions()
						opts.TR, opts.FixedPeriod, opts.LaunchProb = 0.3, 3, 0.05
						factory, err := StrategyFactoryWith(s, opts)
						if err != nil {
							t.Fatal(err)
						}
						builder := func() *nn.Model {
							return nn.NewMLP(nn.ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5}, 64)
						}
						e, err := NewEngine(cfg, builder, resumeData(), factory)
						if err != nil {
							t.Fatal(err)
						}
						stats, err := e.Run(context.Background(), rounds, evalEvery)
						if err != nil {
							t.Fatal(err)
						}
						return fmt.Sprintf("%+v", stats), e.GlobalVector()
					}
					wantStats, want := run(1)
					for _, workers := range []int{2, 7} {
						stats, got := run(workers)
						if stats != wantStats {
							t.Fatalf("workers=%d: round stats differ from workers=1:\n got %s\nwant %s", workers, stats, wantStats)
						}
						if !sameBits(got, want) {
							t.Fatalf("workers=%d: final global deviates bitwise from workers=1", workers)
						}
					}
				})
			}
		}
	}
}
