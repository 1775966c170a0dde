package fl

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedsu/internal/par"
)

// TestTreeFlatBitIdentity is the tentpole acceptance bar: over the same
// sampled cohort, the hierarchical tree's global vector must equal the
// flat server's to the last bit — across fanouts {2, 8, 32}, worker
// counts {1, 4, GOMAXPROCS}, and shuffled submission orders. The cohort
// is drawn from a population so the roster ids are non-contiguous, the
// way a real tree run sees them.
func TestTreeFlatBitIdentity(t *testing.T) {
	const popSize, cohortSize, size = 3000, 100, 4100
	pop := NewPopulation(11)
	pop.RegisterN(popSize, 50)
	cohort := pop.SampleCohort(1, cohortSize)

	vecs := make(map[int][]float64, cohortSize)
	ranked := make([][]float64, cohortSize)
	for r, id := range cohort {
		switch r % 17 {
		case 5: // abstainer: checks in with nil
			vecs[id] = nil
		default:
			vecs[id] = contributionFor(id, size)
			ranked[r] = vecs[id]
		}
	}
	oracle := canonicalMean(ranked)

	// Flat reference run.
	flat := NewServer(popSize)
	flat.SetRoster(cohort)
	flat.BeginRound(0, cohort)
	flatRes, flatErrs := submitInOrder(t, flat, 0, cohort, vecs)
	for id, err := range flatErrs {
		if err != nil {
			t.Fatalf("flat client %d: %v", id, err)
		}
	}
	want := flatRes[cohort[0]]
	if !sameBits(want, oracle) {
		t.Fatal("flat server deviates from the canonical pairwise oracle")
	}

	orders := [][]int{
		append([]int(nil), cohort...),
		rand.New(rand.NewSource(3)).Perm(cohortSize),
		rand.New(rand.NewSource(4)).Perm(cohortSize),
	}
	// Orders 1,2 are permutations of cohort indexes; materialize ids.
	for oi := 1; oi < len(orders); oi++ {
		ids := make([]int, cohortSize)
		for k, ci := range orders[oi] {
			ids[k] = cohort[ci]
		}
		orders[oi] = ids
	}

	for _, fanout := range []int{2, 8, 32} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			prev := par.SetWorkers(workers)
			for oi, order := range orders {
				tr := NewTree(fanout)
				tr.SetRoster(cohort)
				tr.BeginRound(0, cohort)
				results, errs := submitInOrder(t, tr, 0, order, vecs)
				for id, err := range errs {
					if err != nil {
						t.Fatalf("fanout=%d workers=%d order=%d client %d: %v", fanout, workers, oi, id, err)
					}
				}
				for id, res := range results {
					if !sameBits(res, want) {
						t.Fatalf("fanout=%d workers=%d order=%d client %d: tree result deviates from flat server", fanout, workers, oi, id)
					}
				}
			}
			par.SetWorkers(prev)
		}
	}
}

// TestTreeDeadlineEviction: a tree collective closed by deadline must
// average the actual contributors bit-identically to a flat server closed
// over the same contributor set, evict the missing clients, and account
// for them in the per-tier counters.
func TestTreeDeadlineEviction(t *testing.T) {
	const size = 2048
	roster := []int{3, 8, 15, 21, 30, 44, 52, 61}
	submitters := []int{3, 15, 30, 44, 61}
	vecs := make(map[int][]float64)
	ranked := make([][]float64, len(roster))
	for r, id := range roster {
		for _, s := range submitters {
			if s == id {
				vecs[id] = contributionFor(id, size)
				ranked[r] = vecs[id]
			}
		}
	}
	want := canonicalMean(ranked)

	tr := NewTree(4)
	tr.SetDeadline(40 * time.Millisecond)
	tr.SetRoster(roster)
	tr.BeginRound(0, roster)
	results, errs := submitInOrder(t, tr, 0, submitters, vecs)
	for _, id := range submitters {
		if errs[id] != nil {
			t.Fatalf("client %d: %v", id, errs[id])
		}
		if !sameBits(results[id], want) {
			t.Fatalf("client %d: deadline-closed tree mean deviates from canonical reference", id)
		}
	}
	if got := tr.Evicted(); len(got) != 3 || got[0] != 8 || got[1] != 21 || got[2] != 52 {
		t.Fatalf("evicted = %v, want [8 21 52]", got)
	}
	if tr.TimeoutCount() != 1 {
		t.Fatalf("timeouts = %d, want 1", tr.TimeoutCount())
	}
	st := tr.Stats()
	if len(st.TierEvictions) == 0 || st.TierEvictions[0] != 3 {
		t.Fatalf("tier evictions = %v, want [3 ...]", st.TierEvictions)
	}
	// A late submission from an evicted client is rejected.
	if _, err := tr.AggregateModel(8, 0, contributionFor(8, size)); err == nil {
		t.Fatal("evicted client's late submission was accepted")
	}
}

// TestTreeStrayRejected: ids outside the roster error immediately — the
// tree cannot rank a stray.
func TestTreeStrayRejected(t *testing.T) {
	tr := NewTree(2)
	tr.SetRoster([]int{1, 2})
	tr.BeginRound(0, []int{1, 2})
	if _, err := tr.AggregateModel(7, 0, []float64{1}); err == nil {
		t.Fatal("stray submission was accepted")
	}
}

// TestTreeDoubleSubmit mirrors the flat server's strict double-submit
// error.
func TestTreeDoubleSubmit(t *testing.T) {
	tr := NewTree(2)
	tr.SetRoster([]int{0, 1})
	tr.BeginRound(0, []int{0, 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = tr.AggregateModel(0, 0, []float64{1, 2})
	}()
	waitSubs(t, tr, 0, "model", 1)
	if _, err := tr.AggregateModel(0, 0, []float64{1, 2}); err == nil {
		t.Fatal("double submission was accepted")
	}
	if _, err := tr.AggregateModel(1, 0, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestTreeLateSubmissionGetsResult: a roster member arriving after a
// deadline-free barrier closed (its slot was filled by eviction... here
// by completing the quorum) receives the published result.
func TestTreeLateSubmissionGetsResult(t *testing.T) {
	tr := NewTree(2)
	tr.SetDeadline(30 * time.Millisecond)
	tr.SetRoster([]int{0, 1, 2})
	tr.BeginRound(0, []int{0, 1, 2})
	vecs := map[int][]float64{0: {2, 4}, 1: {4, 8}}
	results, errs := submitInOrder(t, tr, 0, []int{0, 1}, vecs)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	want := []float64{3, 6}
	if !sameBits(results[0], want) {
		t.Fatalf("mean = %v, want %v", results[0], want)
	}
}

// TestTreeCallerSliceNotAliased: the abandoned-wait detach works through
// the leaf tier exactly as on the flat server.
func TestTreeCallerSliceNotAliased(t *testing.T) {
	tr := NewTree(2)
	tr.SetRoster([]int{0, 1})
	tr.BeginRound(0, []int{0, 1})

	vec := []float64{10, 20, 30}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := tr.AggregateModelCtx(ctx, 0, 0, vec)
		if err == nil {
			panic("cancelled wait returned no error")
		}
	}()
	waitSubs(t, tr, 0, "model", 1)
	cancel()
	<-done
	vec[0], vec[1], vec[2] = -1e9, -1e9, -1e9

	res, err := tr.AggregateModel(1, 0, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 12, 18}
	if !sameBits(res, want) {
		t.Fatalf("mean = %v, want %v: the tree aliased the caller's slice", res, want)
	}
}

// TestTreeStatsCounters: leaf folds and forwarded partials reflect the
// topology — ceil(n/F) leaf folds per collective, and every non-root node
// with contributions forwards exactly one partial.
func TestTreeStatsCounters(t *testing.T) {
	const n, fanout = 20, 4 // tiers: 5 leaves -> 2 mids -> root
	roster := make([]int, n)
	vecs := make(map[int][]float64, n)
	for i := range roster {
		roster[i] = i * 3
		vecs[i*3] = contributionFor(i, 64)
	}
	tr := NewTree(fanout)
	tr.SetRoster(roster)
	tr.BeginRound(0, roster)
	_, errs := submitInOrder(t, tr, 0, roster, vecs)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	st := tr.Stats()
	if st.Tiers != 3 {
		t.Fatalf("tiers = %d, want 3", st.Tiers)
	}
	if st.LeafFolds != 5 {
		t.Fatalf("leaf folds = %d, want 5", st.LeafFolds)
	}
	if st.ForwardedPartials != 7 { // 5 leaves + 2 mids
		t.Fatalf("forwarded partials = %d, want 7", st.ForwardedPartials)
	}
}

// TestTreeMultiRoundRecycling: consecutive rounds over changing cohorts
// reuse the recycled shells and stay correct.
func TestTreeMultiRoundRecycling(t *testing.T) {
	pop := NewPopulation(5)
	pop.RegisterN(500, 10)
	tr := NewTree(8)
	for round := 0; round < 4; round++ {
		cohort := pop.SampleCohort(round, 40)
		tr.SetRoster(cohort)
		tr.BeginRound(round, cohort)
		vecs := make(map[int][]float64, len(cohort))
		ranked := make([][]float64, len(cohort))
		for r, id := range cohort {
			vecs[id] = contributionFor(id+round*1000, 700)
			ranked[r] = vecs[id]
		}
		want := canonicalMean(ranked)
		results, errs := submitInOrder(t, tr, round, cohort, vecs)
		for id, err := range errs {
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, id, err)
			}
		}
		for id, res := range results {
			if !sameBits(res, want) {
				t.Fatalf("round %d client %d: recycled-tree mean deviates", round, id)
			}
		}
	}
}

// TestBeginRoundSparesAHeldCollective: over flrpc a fast client's next round
// reaches BeginRound while a slower handler of the closed barrier has not
// woken yet (found by examples/tcp_cluster under the race detector: the
// waiter read a recycled shell, or waited on the next collective's channel).
// A collective an Aggregate call still holds is dropped, not recycled: the
// late waiter finds its result, and the next round gets another shell.
func TestBeginRoundSparesAHeldCollective(t *testing.T) {
	ids := []int{0, 1}
	s := NewServer(2)
	s.BeginRound(0, ids)
	results, errs := submitAll(t, s, 0, "model", ids, map[int][]float64{0: {2}, 1: {4}})
	wantAll(t, "round 0", results, errs, []float64{3})

	s.mu.Lock()
	held := s.cols[opKey{round: 0, kind: "model"}]
	held.holders.Add(1) // a waiter between the barrier closing and its return
	s.mu.Unlock()

	s.BeginRound(1, ids)
	results, errs = submitAll(t, s, 1, "model", ids, map[int][]float64{0: {10}, 1: {20}})
	wantAll(t, "round 1", results, errs, []float64{15})
	s.mu.Lock()
	reused := s.cols[opKey{round: 1, kind: "model"}] == held
	s.mu.Unlock()
	if reused {
		t.Fatal("a held collective's shell was recycled into the next round")
	}
	if res, err := s.wait(context.Background(), held, nil, -1); err != nil || !sameBits(res, []float64{3}) {
		t.Errorf("the late waiter got %v, %v; want round 0's mean [3]", res, err)
	}

	// Released, the next BeginRound recycles as before.
	held.holders.Add(-1)
	s.BeginRound(2, ids)
	s.mu.Lock()
	free := len(s.colFree)
	s.mu.Unlock()
	if free == 0 {
		t.Error("a finished collective nobody holds was not recycled")
	}
}
