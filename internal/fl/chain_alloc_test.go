package fl

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/par"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// heldAgg reads the tree's results under a Hold and answers from buffers of
// its own, one per leg, so every waiter of a collective holds and the tree
// recycles its result buffers: what a round allocates is then the client's
// side alone. It takes both legs at once, as the tree does.
type heldAgg struct {
	tree *Tree
	bufs [2][]float64
}

func (a *heldAgg) AggregateModel(id, round int, v []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), id, round, v)
}

func (a *heldAgg) AggregateError(id, round int, v []float64) ([]float64, error) {
	return a.AggregateErrorCtx(context.Background(), id, round, v)
}

// ConcurrentLegs implements sparse.LegAggregator: each leg has its buffer.
func (a *heldAgg) ConcurrentLegs() bool { return true }

func (a *heldAgg) AggregateModelCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	return a.held(ctx, sparse.ModelLeg, id, round, v)
}

func (a *heldAgg) AggregateErrorCtx(ctx context.Context, id, round int, v []float64) ([]float64, error) {
	return a.held(ctx, sparse.ErrorLeg, id, round, v)
}

func (a *heldAgg) held(ctx context.Context, leg sparse.Leg, id, round int, v []float64) ([]float64, error) {
	var h Hold
	defer h.Release()
	ctx = WithHold(ctx, &h)
	var res []float64
	var err error
	if leg == sparse.ErrorLeg {
		res, err = a.tree.AggregateErrorCtx(ctx, id, round, v)
	} else {
		res, err = a.tree.AggregateModelCtx(ctx, id, round, v)
	}
	if err != nil || res == nil {
		return nil, err
	}
	a.bufs[leg] = append(a.bufs[leg][:0], res...)
	return a.bufs[leg], nil
}

// TestFedSUChainRoundSteadyStateAllocs: a steady-state FedSU round over
// sparse.WrapAggregator(fl.Tree, topk,q4,rans), both legs in flight,
// allocates nothing vector-sized. The chain aggregator decodes each reply
// into the manager's lent storage and stages a submission nobody asked the
// image of in a pooled buffer; before, it allocated both, per client and
// leg. The measured rounds must include checking rounds.
func TestFedSUChainRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer par.SetWorkers(par.SetWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const members, size, rounds = 4, 4096, 20
	chain, err := codec.Parse("topk,q4,rans", 3)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(2)
	ids := make([]int, members)
	mgrs := make([]*core.Manager, members)
	for c := range mgrs {
		ids[c] = c
		mgrs[c], err = core.NewManager(c, size, sparse.WrapAggregator(&heldAgg{tree: tree}, chain), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mgrs[c].SetWire(sparse.Wire{Chain: chain})
	}
	tree.SetRoster(ids)
	locals := make([][]float64, members)
	for c := range locals {
		locals[c] = make([]float64, size)
	}
	errs := make([]error, members)
	checking := 0
	round := func(k int) {
		tree.BeginRound(k, ids)
		for c, local := range locals {
			for i := range local {
				local[i] = float64(i%13) + 0.01*float64(i%7+1)*float64(k) + 1e-4*float64((i*31+c*17+k)%5)
			}
		}
		var wg sync.WaitGroup
		checked := make([]int, members)
		for c, m := range mgrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tr sparse.Traffic
				_, tr, errs[c] = m.Sync(k, locals[c], true)
				checked[c] = tr.CheckedParams
			}()
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("round %d client %d: %v", k, c, err)
			}
		}
		if checked[0] > 0 {
			checking++
		}
	}
	for k := 0; k < 12; k++ {
		round(k)
	}
	checking = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 12; k < 12+rounds; k++ {
		round(k)
	}
	runtime.ReadMemStats(&after)
	if checking == 0 {
		t.Fatal("no measured round ran the error collective")
	}
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B/round for %d members, %d checking rounds (one vector is %d B)", perRound, members, checking, 8*size)
	if budget := uint64(8 * size / 4); perRound > budget {
		t.Errorf("a steady-state round allocates %d B, budget %d B: something vector-sized is allocated", perRound, budget)
	}
}
