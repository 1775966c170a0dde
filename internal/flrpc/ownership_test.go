package flrpc

import (
	"math"
	"sync"
	"testing"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// enteredAgg reports each model collective it is about to enter.
type enteredAgg struct {
	sparse.Aggregator
	entered chan<- int
}

func (a enteredAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	a.entered <- id
	return a.Aggregator.AggregateModel(id, round, v)
}

// TestFedAvgOwnsResult: the vector FedAvg returns for round r belongs to the
// strategy until its own next Sync starts — checked on the fleet's last
// client while every other client is already inside round r+1 (over loopback
// their handlers are parked in the barrier, so the coordinator has swept
// round r) — and the trajectory's bits are the ones the previous commit
// produced, when every round's result was a fresh slice.
func TestFedAvgOwnsResult(t *testing.T) {
	const k, n, rounds, late = 3, 300, 5, 2 // late is the last rank, so the others' fold does not wait for it
	want := [rounds]uint64{0x4cd28ece95b0bc73, 0xf37c19a8407c6744, 0xa17b15d412796620, 0x4a7591ef4d306dd6, 0x872b30093d1a14ef}

	run := func(t *testing.T, aggFor func(i int) sparse.Aggregator, begin func(r int), othersIn func()) {
		syncers := make([]*sparse.FedAvg, k)
		locals, outs := make([][]float64, k), make([][]float64, k)
		for c := range syncers {
			syncers[c] = sparse.NewFedAvg(c, n, aggFor(c))
			locals[c], outs[c] = make([]float64, n), make([]float64, n)
		}
		for r := 0; r < rounds; r++ {
			for c, l := range locals {
				for i := range l {
					h := uint64(c+1)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9 ^ uint64(r+1)*0x94d049bb133111eb
					h ^= h >> 29
					l[i] = outs[c][i]/3 + float64(int64(h%2001)-1000)/64
					if h%11 == 0 {
						l[i] = 0 // mixed mask words on the wire
					}
				}
			}
			kept := append([]float64(nil), outs[late]...)
			begin(r)
			var wg sync.WaitGroup
			for c := range syncers[:late] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if outs[c], _, err = syncers[c].Sync(r, locals[c], true); err != nil {
						t.Errorf("round %d client %d: %v", r, c, err)
					}
				}()
			}
			othersIn()
			for i, v := range outs[late] {
				if math.Float64bits(v) != math.Float64bits(kept[i]) {
					t.Fatalf("round %d: element %d of the vector round %d returned changed before the strategy's next Sync", r, i, r-1)
				}
			}
			var err error
			if outs[late], _, err = syncers[late].Sync(r, locals[late], true); err != nil {
				t.Fatalf("round %d client %d: %v", r, late, err)
			}
			wg.Wait()
			fp := uint64(14695981039346656037)
			for i, v := range outs[0] {
				fp = (fp ^ math.Float64bits(v) ^ math.Float64bits(v)>>32) * 1099511628211
				for c := 1; c < k; c++ {
					if math.Float64bits(outs[c][i]) != math.Float64bits(v) {
						t.Fatalf("round %d: clients 0 and %d differ at element %d", r, c, i)
					}
				}
			}
			if fp != want[r] {
				t.Errorf("round %d: fingerprint %#016x, the previous commit's trajectory has %#016x", r, fp, want[r])
			}
		}
	}

	t.Run("in-process", func(t *testing.T) {
		srv := fl.NewServer(k)
		entered := make(chan int, k)
		run(t,
			func(int) sparse.Aggregator { return enteredAgg{quantAggregator{inner: srv}, entered} },
			func(r int) {
				for len(entered) > 0 {
					<-entered // the late client's own signal from the round before
				}
				srv.BeginRound(r, []int{0, 1, 2})
			},
			func() {
				for i := 0; i < late; i++ {
					<-entered
				}
			})
	})
	t.Run("loopback", func(t *testing.T) {
		coord, addr := startCoordinatorWith(t, Config{NumClients: k, ModelSize: n})
		conns := make([]*Client, k)
		for range conns {
			c, err := Dial(addr, "owner")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			conns[c.ClientID()] = c
		}
		run(t,
			func(i int) sparse.Aggregator { return conns[i] },
			func(int) {},
			func() { awaitWaiting(t, coord, late) })
	})
}
