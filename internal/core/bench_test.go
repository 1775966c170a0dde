package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSyncScale times one steady-state Sync — stage, both collectives
// against an aggregator that copies, commit — at the tcp_fedsu_chain
// workload's model size and a tenth of it, on the benchmark generator's class
// mix (bench/gen.go: of every ten parameters six drift linearly, two revert
// to the mean, two walk), so the round has the workload's blend of
// speculative, checking and regular parameters. Trajectory generation is off
// the clock. ns/param is the number to compare across sizes: equal means the
// pass is instruction-bound, not memory-bound.
func BenchmarkSyncScale(b *testing.B) {
	for _, n := range []int{15_000, 150_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m, err := NewManager(0, n, &reuseAgg{}, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			noise := make([]float64, 1<<16)
			for i := range noise {
				noise[i] = rng.NormFloat64()
			}
			local, global := make([]float64, n), make([]float64, n)
			round := 0
			step := func() {
				b.StopTimer()
				off := rng.Intn(len(noise))
				for i := range local {
					z := noise[(off+i)%len(noise)]
					switch i % 10 {
					case 6, 7:
						local[i] = 0.5*global[i] + 0.05*z
					case 8, 9:
						local[i] = global[i] + 0.05*z
					default:
						local[i] = global[i] + 0.01*float64(i%7+1) + 1e-5*z
					}
				}
				b.StartTimer()
				out, _, err := m.Sync(round, local, true)
				if err != nil {
					b.Fatal(err)
				}
				copy(global, out)
				round++
			}
			for round < 30 { // past the bootstrap and the first promotions
				step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/param")
			b.ReportMetric(float64(m.PredictableCount())/float64(n), "speculative")
		})
	}
}
