package fl

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fedsu/internal/par"
)

// The aggregation benchmarks measure the round-synchronization hot loop the
// netem emulation hammers: numClients submissions of a size-parameter vector
// per collective, barrier close, mean fan-out. One benchmark iteration is
// one full collective (BeginRound + every client's submission + the mean).
//
// Submitter goroutines are persistent — spawned once, woken per round — so
// the numbers reflect the server's submit path, not goroutine churn.

// benchFleet drives one collective per Signal() call from persistent
// submitter goroutines.
type benchFleet struct {
	srv     *Server
	vecs    [][]float64
	ids     []int
	start   []chan int
	done    sync.WaitGroup
	failure error
	mu      sync.Mutex
	// held, set before the first round, makes every submitter a counted
	// reader: it waits under a Hold and releases it on return.
	held bool
}

func newBenchFleet(clients, size int) *benchFleet {
	return newBenchFleetOn(NewServer(clients), clients, size)
}

// newBenchFleetOn is newBenchFleet over a collective the caller built (a
// tree, a relay-mode subtree); ids 0..clients-1 are declared as its roster.
func newBenchFleetOn(srv *Server, clients, size int) *benchFleet {
	f := &benchFleet{srv: srv}
	f.ids = make([]int, clients)
	f.vecs = make([][]float64, clients)
	f.start = make([]chan int, clients)
	for i := 0; i < clients; i++ {
		f.ids[i] = i
		vec := make([]float64, size)
		for j := range vec {
			vec[j] = float64(i+1) + float64(j)*1e-6
		}
		f.vecs[i] = vec
		f.start[i] = make(chan int, 1)
		go func(i int) {
			var hold Hold
			ctx := WithHold(context.Background(), &hold)
			for round := range f.start[i] {
				var err error
				if f.held {
					_, err = f.srv.AggregateModelCtx(ctx, i, round, f.vecs[i])
					hold.Release()
				} else {
					_, err = f.srv.AggregateModel(i, round, f.vecs[i])
				}
				if err != nil {
					f.mu.Lock()
					f.failure = err
					f.mu.Unlock()
				}
				f.done.Done()
			}
		}(i)
	}
	srv.SetRoster(f.ids)
	return f
}

// round runs one full collective and blocks until every submitter received
// the mean.
func (f *benchFleet) round(k int) {
	f.srv.BeginRound(k, f.ids)
	f.done.Add(len(f.start))
	for _, ch := range f.start {
		ch <- k
	}
	f.done.Wait()
}

func (f *benchFleet) close() {
	for _, ch := range f.start {
		close(ch)
	}
}

func benchmarkAggregate(b *testing.B, clients, size int) {
	f := newBenchFleet(clients, size)
	defer f.close()
	f.round(0) // warm up pools and op bookkeeping outside the timer
	b.SetBytes(int64(clients) * int64(size) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.round(i + 1)
	}
	b.StopTimer()
	if f.failure != nil {
		b.Fatal(f.failure)
	}
}

// BenchmarkAggregate is the headline number tracked in BENCH_agg.json:
// 64 clients × 100k parameters, the scale of the paper's CNN workload.
func BenchmarkAggregate(b *testing.B) { benchmarkAggregate(b, 64, 100_000) }

// BenchmarkAggregateSmall covers the many-barriers-per-round regime (FedSU
// error collectives are typically a few hundred parameters).
func BenchmarkAggregateSmall(b *testing.B) { benchmarkAggregate(b, 64, 512) }

// BenchmarkAggregateWorkers pins the worker pool to explicit sizes so the
// scaling of the sharded reduction is visible on multi-core hosts.
func BenchmarkAggregateWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			benchmarkAggregate(b, 64, 100_000)
		})
	}
}
