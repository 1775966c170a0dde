package fl

import (
	"sync"
	"testing"
	"time"
)

// TestTreePartialBitIdentity: a tree where some leaf blocks are folded by
// remote subtrees (SetUpstream -> AggregatePartial) and the rest by
// direct member submissions must publish the same global, to the bit, as
// a flat fold over the whole cohort — the distributed-tier deployment
// cannot perturb the canonical pairwise order.
func TestTreePartialBitIdentity(t *testing.T) {
	const size, fanout = 3100, 8
	pop := NewPopulation(23)
	pop.RegisterN(2000, 10)
	cohort := pop.SampleCohort(7, 40) // 5 aligned blocks of 8

	vecs := make(map[int][]float64, len(cohort))
	ranked := make([][]float64, len(cohort))
	for r, id := range cohort {
		if r == 19 { // one abstainer inside a remote block
			continue
		}
		vecs[id] = contributionFor(id, size)
		ranked[r] = vecs[id]
	}
	want := canonicalMean(ranked)

	root := NewTree(fanout)
	root.SetRoster(cohort)
	root.BeginRound(0, cohort)

	// Blocks 0, 2, 4 are served by remote relays; blocks 1, 3 submit
	// their members directly to the root.
	var wg sync.WaitGroup
	check := func(id int, res []float64, err error) {
		if err != nil {
			t.Errorf("client %d: %v", id, err)
			return
		}
		if !sameBits(res, want) {
			t.Errorf("client %d: distributed-tier global deviates from canonical mean", id)
		}
	}
	for b := 0; b < 5; b++ {
		lo := b * fanout
		block := cohort[lo:min(lo+fanout, len(cohort))]
		if b%2 == 1 {
			for _, id := range block {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					res, err := root.AggregateModel(id, 0, vecs[id])
					check(id, res, err)
				}(id)
			}
			continue
		}
		sub := NewTree(fanout)
		sub.SetRoster(block)
		sub.BeginRound(0, block)
		sub.SetUpstream(lo, func(round int, kind string, rankLo int, sum []float64, weight int) ([]float64, error) {
			return root.AggregatePartial(round, kind, rankLo, sum, weight)
		})
		for _, id := range block {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				res, err := sub.AggregateModel(id, 0, vecs[id])
				check(id, res, err)
			}(id)
		}
	}
	wg.Wait()
	st := root.Stats()
	// 3 remote partials + 2 locally folded leaves + nothing from the root.
	if st.ForwardedPartials != 5 {
		t.Fatalf("forwarded partials = %d, want 5", st.ForwardedPartials)
	}
	if st.LeafFolds != 2 {
		t.Fatalf("leaf folds = %d, want 2 (remote blocks fold at their relay)", st.LeafFolds)
	}
}

// TestTreePartialIdempotent: with SetIdempotent (the coordinator's
// setting) resubmitting a block's partial — the flrpc retry-after-reconnect
// path — returns the published global; without it the resubmission is the
// same strict double-submit error a member gets.
func TestTreePartialIdempotent(t *testing.T) {
	for _, idempotent := range []bool{true, false} {
		testTreePartialResubmission(t, idempotent)
	}
}

func testTreePartialResubmission(t *testing.T, idempotent bool) {
	roster := []int{0, 1, 2, 3}
	vecs := map[int][]float64{2: {4, 8}, 3: {8, 16}}
	tr := NewTree(2)
	tr.SetIdempotent(idempotent)
	tr.SetRoster(roster)
	tr.BeginRound(0, roster)
	sum := []float64{2, 6} // members 0+1 folded remotely: {0,2} + {2,4}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := tr.AggregatePartial(0, "model", 0, sum, 2); err != nil {
			t.Errorf("first partial: %v", err)
		}
	}()
	for _, id := range []int{2, 3} {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := tr.AggregateModel(id, 0, vecs[id]); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	res, err := tr.AggregatePartial(0, "model", 0, sum, 2)
	if !idempotent {
		if err == nil {
			t.Fatal("strict collective accepted a resubmitted partial")
		}
		return
	}
	if err != nil {
		t.Fatalf("idempotent resubmission rejected: %v", err)
	}
	want := []float64{(2 + 4 + 8) / 4.0, (6 + 8 + 16) / 4.0}
	if !sameBits(res, want) {
		t.Fatalf("resubmission returned %v, want %v", res, want)
	}
}

// TestTreePartialValidation: the receiving side rejects partials that
// cannot be injected without corrupting the fold.
func TestTreePartialValidation(t *testing.T) {
	roster := []int{10, 11, 12, 13, 14, 15}
	tr := NewTree(2)
	tr.SetRoster(roster)
	tr.BeginRound(0, roster)
	if _, err := tr.AggregatePartial(0, "model", 1, []float64{1}, 1); err == nil {
		t.Fatal("misaligned rank accepted")
	}
	if _, err := tr.AggregatePartial(0, "model", 8, []float64{1}, 1); err == nil {
		t.Fatal("out-of-roster rank accepted")
	}
	if _, err := tr.AggregatePartial(0, "model", 0, []float64{1}, 3); err == nil {
		t.Fatal("weight above block size accepted")
	}
	if _, err := tr.AggregatePartial(0, "model", 0, nil, 1); err == nil {
		t.Fatal("positive weight with nil sum accepted")
	}

	// A block with direct member submissions refuses a replacement partial.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = tr.AggregateModel(10, 0, []float64{1})
	}()
	waitSubs(t, tr, 0, "model", 1)
	if _, err := tr.AggregatePartial(0, "model", 0, []float64{5}, 2); err == nil {
		t.Fatal("partial over a partially folded block accepted")
	}
	for _, id := range []int{11, 12, 13, 14, 15} {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, _ = tr.AggregateModel(id, 0, []float64{1})
		}(id)
	}
	wg.Wait()

	// A single-tier roster has no parent to stage into.
	small := NewTree(4)
	small.SetRoster([]int{1, 2, 3})
	small.BeginRound(0, []int{1, 2, 3})
	if _, err := small.AggregatePartial(0, "model", 0, []float64{1}, 1); err == nil {
		t.Fatal("single-tier partial accepted")
	}

	// After deadline expiry resolved a block, its late partial errors.
	late := NewTree(2)
	late.SetDeadline(20 * time.Millisecond)
	late.SetRoster([]int{0, 1, 2, 3})
	late.BeginRound(1, []int{0, 1, 2, 3})
	var lw sync.WaitGroup
	for _, id := range []int{2, 3} {
		lw.Add(1)
		go func(id int) {
			defer lw.Done()
			_, _ = late.AggregateModel(id, 1, []float64{1, 2})
		}(id)
	}
	lw.Wait()
	if _, err := late.AggregatePartial(1, "model", 0, []float64{9, 9}, 2); err == nil {
		t.Fatal("partial for an expired block accepted")
	}
}
