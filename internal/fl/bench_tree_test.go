package fl

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fedsu/internal/sparse"
)

// BenchmarkTreeRootFold compares the ROOT aggregator's per-round workload
// flat versus hierarchical, at equal participants: a 1000-member cohort
// sampled from 100k registered devices. The flat arm is what a flat
// coordinator does — fold every member's dense upload. The fanout arms
// are what the tree root does in a distributed deployment — ingest one
// partial-sum message per aligned leaf block (the leaves' folding runs on
// the relay machines, not here). The rootRxB metric is the corresponding
// ingest payload: cohort dense uploads when flat, one partial per block
// under the tree.
func BenchmarkTreeRootFold(b *testing.B) {
	const population, cohortK, size = 100_000, 1000, 10_000
	pop := NewPopulation(7)
	pop.RegisterN(population, 10)
	cohort := pop.SampleCohort(0, cohortK)
	vec := make([]float64, size)
	for i := range vec {
		vec[i] = float64(i%97) * 0.25
	}

	b.Run("flat", func(b *testing.B) {
		srv := NewServer(cohortK)
		srv.SetRoster(cohort)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			srv.BeginRound(n, cohort)
			var wg sync.WaitGroup
			for _, id := range cohort {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if _, err := srv.AggregateModel(id, n, vec); err != nil {
						b.Error(err)
					}
				}(id)
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(cohortK*sparse.DenseMessageBytes(size)), "rootRxB")
	})

	for _, fanout := range []int{8, 32} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			tr := NewTree(fanout)
			tr.SetRoster(cohort)
			// Pre-fold each aligned block's partial outside the timer:
			// that work happens on the relay machines. Every member
			// submits vec, so a block's canonical sum is weight·vec.
			type block struct {
				rankLo, weight int
				sum            []float64
			}
			var blocks []block
			for lo := 0; lo < cohortK; lo += fanout {
				w := fanout
				if lo+w > cohortK {
					w = cohortK - lo
				}
				sum := make([]float64, size)
				for i := range sum {
					sum[i] = float64(w) * vec[i]
				}
				blocks = append(blocks, block{rankLo: lo, weight: w, sum: sum})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tr.BeginRound(n, cohort)
				var wg sync.WaitGroup
				for _, blk := range blocks {
					wg.Add(1)
					go func(blk block) {
						defer wg.Done()
						if _, err := tr.AggregatePartialCtx(context.Background(), n, sparse.ModelLeg, blk.rankLo, blk.sum, blk.weight); err != nil {
							b.Error(err)
						}
					}(blk)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(blocks)*sparse.PartialPayloadSize(size)), "rootRxB")
		})
	}
}
