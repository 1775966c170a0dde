package fl

import (
	"math/rand"
	"runtime"
	"testing"

	"fedsu/internal/par"
)

// Satellite: the cohort sampler's determinism contract. Same (seed,
// round) → same cohort regardless of registration order, shuffled
// population, and par worker count; distinct rounds draw distinct
// cohorts; no member repeats within a round.

func popWithOrder(seed int64, ids []int) *Population {
	p := NewPopulation(seed)
	for _, id := range ids {
		p.Register(Member{ID: id, ShardSize: 100 + id%7})
	}
	return p
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCohortSamplingDeterministic(t *testing.T) {
	const n, k, seed = 5000, 120, 42
	asc := make([]int, n)
	for i := range asc {
		asc[i] = i
	}
	desc := make([]int, n)
	for i := range desc {
		desc[i] = n - 1 - i
	}
	shuf := rand.New(rand.NewSource(7)).Perm(n)

	ref := popWithOrder(seed, asc)
	for round := 0; round < 5; round++ {
		want := ref.SampleCohort(round, k)
		if len(want) != k {
			t.Fatalf("round %d: cohort size %d, want %d", round, len(want), k)
		}
		for _, order := range [][]int{desc, shuf} {
			got := popWithOrder(seed, order).SampleCohort(round, k)
			if !equalInts(got, want) {
				t.Fatalf("round %d: cohort depends on registration order", round)
			}
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			prev := par.SetWorkers(workers)
			got := ref.SampleCohort(round, k)
			par.SetWorkers(prev)
			if !equalInts(got, want) {
				t.Fatalf("round %d: cohort depends on par workers=%d", round, workers)
			}
		}
		// Repeat draws of the same round are identical (no hidden state).
		if !equalInts(ref.SampleCohort(round, k), want) {
			t.Fatalf("round %d: repeated draw differs", round)
		}
	}
}

func TestCohortSamplingWithoutReplacement(t *testing.T) {
	p := popWithOrder(3, rand.New(rand.NewSource(1)).Perm(2000))
	for round := 0; round < 8; round++ {
		cohort := p.SampleCohort(round, 300)
		seen := make(map[int]bool, len(cohort))
		for _, id := range cohort {
			if seen[id] {
				t.Fatalf("round %d: member %d drawn twice", round, id)
			}
			seen[id] = true
			if id < 0 || id >= 2000 {
				t.Fatalf("round %d: member %d outside population", round, id)
			}
		}
	}
}

func TestCohortSamplingRoundsDiffer(t *testing.T) {
	p := NewPopulation(9)
	p.RegisterN(10000, 64)
	c0 := p.SampleCohort(0, 500)
	distinct := false
	for round := 1; round < 4 && !distinct; round++ {
		if !equalInts(p.SampleCohort(round, 500), c0) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("rounds 0..3 all drew the identical cohort")
	}
	// Seeds diversify the draw too.
	q := NewPopulation(10)
	q.RegisterN(10000, 64)
	if equalInts(q.SampleCohort(0, 500), c0) {
		t.Fatal("different seeds drew the identical cohort")
	}
}

func TestCohortSamplingEdges(t *testing.T) {
	p := NewPopulation(1)
	p.RegisterN(10, 5)
	if got := p.SampleCohort(0, 0); got != nil {
		t.Fatalf("k=0 cohort = %v, want nil", got)
	}
	if got := p.SampleCohort(0, 25); !equalInts(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("k>n cohort = %v, want all ids", got)
	}
	// Cohorts come back in ascending id order — the roster rank order the
	// aggregation tier relies on.
	c := p.SampleCohort(3, 6)
	for i := 1; i < len(c); i++ {
		if c[i] <= c[i-1] {
			t.Fatalf("cohort not ascending: %v", c)
		}
	}
	// Re-registering replaces, not duplicates.
	p.Register(Member{ID: 4, ShardSize: 99})
	if p.Len() != 10 {
		t.Fatalf("re-register changed population size to %d", p.Len())
	}
	if m, _ := p.Member(4); m.ShardSize != 99 {
		t.Fatalf("re-register did not replace descriptor: %+v", m)
	}
}
