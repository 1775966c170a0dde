package fl

import (
	"context"
	"sync"
	"testing"
)

// TestEscapedResultIsNeverRecycled: a waiter that took a collective's result
// without a Hold may keep the slice for good — its bits survive three further
// rounds of a fleet whose other waiters all hold and release, on the flat
// collective and on a tree — while a held result reads right until its
// Release. Run under -race, a buffer recycled under a reader is a report.
func TestEscapedResultIsNeverRecycled(t *testing.T) {
	const members, size = 16, 2100
	for name, tr := range map[string]*Tree{"flat": NewServer(members), "fanout 8": NewTree(8)} {
		t.Run(name, func(t *testing.T) {
			ids := make([]int, members)
			for m := range ids {
				ids[m] = m
			}
			tr.SetRoster(ids)
			// Integer values and a power-of-two fleet: every sum and the mean
			// are exact, so the expected result needs no fold of its own.
			mean := func(r, i int) float64 { return float64((r+1)*(members+1))/2 + float64(i%7) }
			// round runs one collective; member plain waits without a Hold and
			// returns what it got, everyone else checks the mean under a Hold.
			round := func(r, plain int) (kept []float64) {
				tr.BeginRound(r, ids)
				var wg sync.WaitGroup
				for m := range ids {
					wg.Add(1)
					go func() {
						defer wg.Done()
						vec := make([]float64, size)
						for i := range vec {
							vec[i] = float64((r+1)*(m+1) + i%7)
						}
						var hold Hold
						ctx := context.Background()
						if m != plain {
							ctx = WithHold(ctx, &hold)
						}
						res, err := tr.AggregateModelCtx(ctx, m, r, vec)
						if err != nil {
							t.Error(err)
							return
						}
						for i, v := range res {
							if v != mean(r, i) {
								t.Errorf("round %d member %d: element %d is %v, want %v", r, m, i, v, mean(r, i))
								break
							}
						}
						hold.Release()
						if m == plain {
							kept = res
						}
					}()
				}
				wg.Wait()
				return kept
			}
			kept := round(0, 3)
			for r := 1; r <= 4; r++ {
				if r < 4 {
					round(r, -1)
				} else {
					tr.BeginRound(r, ids) // sweeps round 3, as a fifth round would
				}
				for i, v := range kept {
					if v != mean(0, i) {
						t.Fatalf("once round %d began: element %d of the slice a plain waiter kept from round 0 is %v, was %v", r, i, v, mean(0, i))
					}
				}
			}
		})
	}
}

// TestHoldReturnsTheResultBuffer is the other half: when every waiter held
// and released, the next BeginRound takes the collective back, buffer and
// all; a second Release and a Hold reused for the next call are harmless, and
// a Hold never released only forfeits the recycling.
func TestHoldReturnsTheResultBuffer(t *testing.T) {
	tr := NewServer(2)
	vec := []float64{1, 2, 3}
	call := func(r, m int, h *Hold) []float64 {
		res, err := tr.AggregateModelCtx(WithHold(context.Background(), h), m, r, vec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var a, b Hold
	for r := 0; r < 3; r++ {
		tr.BeginRound(r, []int{0, 1})
		if n := len(tr.colFree); r > 0 && n != 1 {
			t.Fatalf("round %d: %d shells on the free list, want round %d's", r, n, r-1)
		}
		done := make(chan []float64)
		go func() { done <- call(r, 1, &b) }()
		res := call(r, 0, &a)
		<-done
		col := a.col
		if col == nil || col != b.col || col.holders.Load() != 2 {
			t.Fatalf("round %d: holds %+v and %+v do not both count on the collective", r, a, b)
		}
		if col.resultBuf == nil || &(*col.resultBuf)[0] != &res[0] || col.escaped.Load() {
			t.Fatalf("round %d: the collective did not keep its result's buffer (escaped %v)", r, col.escaped.Load())
		}
		a.Release()
		a.Release()
		if r < 2 {
			b.Release() // round 2's is never released
		}
	}
	tr.BeginRound(3, []int{0, 1})
	if n := len(tr.colFree); n != 0 {
		t.Errorf("%d shells on the free list: round 2's collective is still held and must be dropped, not recycled", n)
	}
}

// TestReleasedFoldNodeReferencesNothing: a node that has completed keeps no
// reference to the vectors it folded — not in the slots of its truncated plan
// and spare lists either, which on a recycled node would pin callers' slices
// and buffers already back in the pool past every collection.
func TestReleasedFoldNodeReferencesNothing(t *testing.T) {
	f := newFoldNode()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	f.arm(ids)
	for _, id := range ids {
		vec := make([]float64, 100)
		vec[0] = float64(id)
		f.stage(id, vec, true)
	}
	res, weight, err := f.complete(false)
	if err != nil || weight != len(ids) || (*res)[0] != 28 {
		t.Fatalf("fold: %v, weight %d, %v", err, weight, (*res)[0])
	}
	if cap(f.plan) == 0 || cap(f.spare) == 0 {
		t.Fatalf("the fold planned %d ops and spared %d buffers: nothing to observe", cap(f.plan), cap(f.spare))
	}
	for i, op := range f.plan[:cap(f.plan)] {
		if op.dst != nil || op.a1 != nil || op.a2 != nil {
			t.Errorf("plan slot %d still names a vector", i)
		}
	}
	for i, p := range f.spare[:cap(f.spare)] {
		if p != nil {
			t.Errorf("spare slot %d still points at a buffer", i)
		}
	}
}
