package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fedsu/internal/par"
)

// These tests enforce the tentpole invariant of the streaming sharded
// aggregation: the mean must be bit-identical to the canonical reference
// — a fixed balanced pairwise tree over ascending-id roster ranks, padded
// to a power of two with absent ranks as the identity, scaled by 1/n —
// at every par worker count and every submission arrival order.
// canonicalMean IS that reference, written as the obviously-correct
// recursive tree so the streaming binary-counter implementation in
// fold.go is checked against an independent formulation. The same
// canonical order is what the hierarchical tree (tree.go) reproduces,
// which is how tree runs stay bit-identical to the flat server.

// canonicalMean computes the reference mean over ranked contributions:
// ranked[r] is the vector at roster rank r, or nil for a rank that
// resolved without contributing (abstain, non-participant, evicted).
func canonicalMean(ranked [][]float64) []float64 {
	sum, n := canonicalSum(ranked)
	if sum == nil {
		return nil
	}
	inv := 1.0 / float64(n)
	for i := range sum {
		sum[i] *= inv
	}
	return sum
}

// canonicalSum evaluates the balanced pairwise tree over ranks padded to
// the next power of two; nil ranks merge as the identity (no arithmetic).
func canonicalSum(ranked [][]float64) ([]float64, int) {
	span := 1
	for span < len(ranked) {
		span <<= 1
	}
	n := 0
	var rec func(lo, span int) []float64
	rec = func(lo, span int) []float64 {
		if span == 1 {
			if lo < len(ranked) && ranked[lo] != nil {
				n++
				out := make([]float64, len(ranked[lo]))
				copy(out, ranked[lo])
				return out
			}
			return nil
		}
		l := rec(lo, span/2)
		r := rec(lo+span/2, span/2)
		if l == nil {
			return r
		}
		if r == nil {
			return l
		}
		for i := range l {
			l[i] += r[i]
		}
		return l
	}
	return rec(0, span), n
}

// referenceMean is the historical serial finish(): a left fold over
// contributions in ascending client-id order, scaled by 1/n. The
// buffered-async path still folds in arrival order and its K=N special
// case is pinned to this algorithm (see server_async_test.go); the
// barrier path has moved to the canonical pairwise order above.
func referenceMean(byID map[int][]float64) []float64 {
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sortInts(ids)
	if len(ids) == 0 {
		return nil
	}
	sum := make([]float64, len(byID[ids[0]]))
	for _, id := range ids {
		v := byID[id]
		for i := range sum {
			sum[i] += v[i]
		}
	}
	inv := 1.0 / float64(len(ids))
	for i := range sum {
		sum[i] *= inv
	}
	return sum
}

// contributionFor builds a reproducible, rounding-sensitive vector for a
// client: mixed magnitudes make the float64 fold order observable, so any
// deviation from ascending-id left-fold changes bits.
func contributionFor(id, size int) []float64 {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	v := make([]float64, size)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64((i+id)%9-4))
	}
	return v
}

// submitInOrder forces an exact arrival order: each client's submission is
// launched only after the previous one has fully registered (its subs
// increment is visible under the server lock). Returns the per-client
// results once the barrier releases.
func submitInOrder(t *testing.T, s *Server, round int, order []int, vecs map[int][]float64) (map[int][]float64, map[int]error) {
	t.Helper()
	results := make(map[int][]float64, len(order))
	errs := make(map[int]error, len(order))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k, id := range order {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res, err := s.AggregateModel(id, round, vecs[id])
			mu.Lock()
			results[id], errs[id] = res, err
			mu.Unlock()
		}(id)
		waitSubs(t, s, round, "model", k+1)
	}
	wg.Wait()
	return results, errs
}

// waitSubs polls until the collective's leaves have resolved want inputs
// (staged submissions and evictions alike).
func waitSubs(t *testing.T, s *Server, round int, kind string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		subs := -1
		if c := s.cols[opKey{round: round, kind: kind}]; c != nil {
			subs = 0
			for _, leaf := range c.tiers[0] {
				subs += leaf.subs
			}
		}
		s.mu.Unlock()
		if subs >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d submissions to %s/%d", want, kind, round)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAggregateBitDeterminism is the tentpole guarantee: across worker
// counts 1, 2, 7 and across sorted, reversed, and shuffled arrival orders,
// the streaming fold must equal the canonical pairwise reference to the
// last bit. Size 5000 spans several foldGrain blocks so the parallel path
// actually shards.
func TestAggregateBitDeterminism(t *testing.T) {
	const clients, size = 10, 5000
	vecs := make(map[int][]float64, clients)
	ranked := make([][]float64, clients) // roster {0..9}: rank == id
	participants := make([]int, 0, clients)
	for id := 0; id < clients; id++ {
		switch {
		case id == 4: // abstainer: synchronizes but submits nil
			vecs[id] = nil
		case id == 7: // non-participant: submits values that must not count
			vecs[id] = contributionFor(id, size)
		default:
			vecs[id] = contributionFor(id, size)
			ranked[id] = vecs[id]
		}
		if id != 7 {
			participants = append(participants, id)
		}
	}
	want := canonicalMean(ranked)

	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		rand.New(rand.NewSource(1)).Perm(clients),
		rand.New(rand.NewSource(2)).Perm(clients),
	}
	for _, workers := range []int{1, 2, 7} {
		prev := par.SetWorkers(workers)
		for oi, order := range orders {
			s := NewServer(clients)
			s.BeginRound(0, participants)
			results, errs := submitInOrder(t, s, 0, order, vecs)
			for id, err := range errs {
				if err != nil {
					t.Fatalf("workers=%d order=%d client %d: %v", workers, oi, id, err)
				}
			}
			for id, res := range results {
				if !sameBits(res, want) {
					t.Fatalf("workers=%d order=%d client %d: result deviates from canonical pairwise reference", workers, oi, id)
				}
			}
		}
		par.SetWorkers(prev)
	}
}

// TestAggregateLengthMismatchDeterminism: the reported failure must be the
// one the serial finish() produced — the first ascending contributor whose
// length differs from the first contributor's — independent of arrival
// order and worker count, and every waiter must see it.
func TestAggregateLengthMismatchDeterminism(t *testing.T) {
	const clients = 6
	vecs := make(map[int][]float64, clients)
	participants := make([]int, clients)
	for id := 0; id < clients; id++ {
		participants[id] = id
		n := 40
		if id == 3 || id == 5 {
			n = 41 // two bad lengths: only the lower id may be reported
		}
		vecs[id] = contributionFor(id, n)
	}
	wantErr := fmt.Sprintf("fl: client %d submitted %d values, others %d", 3, 41, 40)

	orders := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{3, 5, 0, 2, 4, 1},
	}
	for _, workers := range []int{1, 2, 7} {
		prev := par.SetWorkers(workers)
		for oi, order := range orders {
			s := NewServer(clients)
			s.BeginRound(0, participants)
			results, errs := submitInOrder(t, s, 0, order, vecs)
			for id := 0; id < clients; id++ {
				if errs[id] == nil || errs[id].Error() != wantErr {
					t.Fatalf("workers=%d order=%d client %d: err = %v, want %q", workers, oi, id, errs[id], wantErr)
				}
				if results[id] != nil {
					t.Fatalf("workers=%d order=%d client %d: got a result alongside the failure", workers, oi, id)
				}
			}
		}
		par.SetWorkers(prev)
	}
}

// TestAggregateEvictionMidStreamBits: a barrier closed by deadline eviction
// must produce the bit-exact canonical mean over the clients that did
// submit — evicted ranks merge as the identity at their roster positions.
func TestAggregateEvictionMidStreamBits(t *testing.T) {
	const clients, size = 5, 3000
	submitters := []int{0, 2, 4} // 1 and 3 miss the deadline
	vecs := make(map[int][]float64)
	ranked := make([][]float64, clients)
	for _, id := range submitters {
		vecs[id] = contributionFor(id, size)
		ranked[id] = vecs[id]
	}
	want := canonicalMean(ranked)

	for _, workers := range []int{1, 7} {
		prev := par.SetWorkers(workers)
		s := NewServer(clients)
		s.SetDeadline(40 * time.Millisecond)
		s.BeginRound(0, []int{0, 1, 2, 3, 4})
		results, errs := submitInOrder(t, s, 0, []int{4, 0, 2}, vecs)
		for _, id := range submitters {
			if errs[id] != nil {
				t.Fatalf("workers=%d client %d: %v", workers, id, errs[id])
			}
			if !sameBits(results[id], want) {
				t.Fatalf("workers=%d client %d: eviction-closed mean deviates from reference", workers, id)
			}
		}
		if got := s.Evicted(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("workers=%d evicted = %v, want [1 3]", workers, got)
		}
		par.SetWorkers(prev)
	}
}

// TestAggregateStrayContribution: a participant outside the barrier's
// roster snapshot still counts, interleaved at its id position — the
// refold path. Client 5 (stray, lowest... highest id) and roster client 0
// fill the need of a {0,1} roster; client 1 arrives after the close and
// receives the already-computed result.
func TestAggregateStrayContribution(t *testing.T) {
	const size = 2600
	v0 := contributionFor(0, size)
	v5 := contributionFor(5, size)
	// The stray-forced refold ranks the combined contributors densely in
	// ascending id order (roster positions are meaningless once an outside
	// id interleaves), so the reference is the canonical tree over [v0, v5].
	want := canonicalMean([][]float64{v0, v5})

	s := NewServer(6)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1, 5})

	// Stray first, then a roster client; need=2 is met by the pair.
	results, errs := submitInOrder(t, s, 0, []int{5, 0}, map[int][]float64{5: v5, 0: v0})
	for _, id := range []int{0, 5} {
		if errs[id] != nil {
			t.Fatalf("client %d: %v", id, errs[id])
		}
		if !sameBits(results[id], want) {
			t.Fatalf("client %d: stray-interleaved mean deviates from reference", id)
		}
	}
	// Late roster client: the barrier already closed; it gets the result.
	late, err := s.AggregateModel(1, 0, contributionFor(1, size))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(late, want) {
		t.Fatal("late submission received a different result than the barrier published")
	}
}

// TestAggregateCallerSliceNotAliased is the satellite aliasing fix: the
// server must stage its own copy, so mutating the submitted slice after an
// abandoned (cancelled) wait cannot corrupt the still-open barrier.
func TestAggregateCallerSliceNotAliased(t *testing.T) {
	s := NewServer(2)
	s.BeginRound(0, []int{0, 1})

	vec := []float64{10, 20, 30}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := s.AggregateModelCtx(ctx, 0, 0, vec)
		if err == nil {
			panic("cancelled wait returned no error")
		}
	}()
	waitSubs(t, s, 0, "model", 1)
	cancel()
	<-done
	// The caller reuses its buffer while the barrier is still open — the
	// historical bug turned this into corrupted means.
	vec[0], vec[1], vec[2] = -1e9, -1e9, -1e9

	res, err := s.AggregateModel(1, 0, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 12, 18}
	if !sameBits(res, want) {
		t.Fatalf("mean = %v, want %v: the server aliased the caller's slice", res, want)
	}
}
