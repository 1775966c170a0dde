package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fedsu/internal/sparse"
)

// BenchmarkSyncScale times one steady-state Sync — stage, both collectives
// against an aggregator that copies, commit — at the tcp_fedsu_chain
// workload's model size, a tenth of it and a model below diagnoseGrain (one
// inline chunk), on the benchmark generator's class mix (bench/gen.go: of
// every ten parameters six drift linearly, two revert to the mean, two
// walk), so the round has the workload's blend of speculative, checking and
// regular parameters. Trajectory generation is off the clock. ns/param is
// the number to compare across sizes: equal means the pass is
// instruction-bound, not memory-bound. The latency arm holds every
// collective for a fixed 1 ms, as a network would: with both legs in
// flight at once a checking round pays it once, not twice. "latencies" is
// the round's time in units of the hold.
func BenchmarkSyncScale(b *testing.B) {
	for _, c := range []struct {
		n     int
		delay time.Duration
	}{{2_000, 0}, {15_000, 0}, {150_000, 0}, {15_000, time.Millisecond}} {
		name := fmt.Sprintf("n=%d", c.n)
		if c.delay > 0 {
			name = fmt.Sprintf("latency=%v/n=%d", c.delay, c.n)
		}
		b.Run(name, func(b *testing.B) {
			var agg sparse.Aggregator = &reuseAgg{}
			if c.delay > 0 {
				agg = delayAgg{inner: agg, delay: c.delay}
			}
			n := c.n
			m, err := NewManager(0, n, agg, DefaultOptions())
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
			if c.delay > 0 {
				b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(c.delay), "latencies")
			}
		})
	}
}

// delayAgg holds every collective call for delay before answering.
type delayAgg struct {
	inner sparse.Aggregator
	delay time.Duration
}

func (a delayAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	time.Sleep(a.delay)
	return a.inner.AggregateModel(id, round, v)
}

func (a delayAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	time.Sleep(a.delay)
	return a.inner.AggregateError(id, round, v)
}

func (a delayAgg) ConcurrentLegs() bool { return sparse.ConcurrentLegs(a.inner) }
