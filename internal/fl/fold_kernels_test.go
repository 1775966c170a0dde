package fl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

// What PR 22 must not change about the fold: its grouping (the fused pair-add
// is the same additions), its bits under either kernel lane, and — new — its
// memory: one vector per collective on every topology.

// TestFusedPlanKeepsGrouping folds leaves of 2, 3, 4, 7 and 8 contributions
// whose values make float64 addition visibly non-associative, alone and with
// abstentions and an eviction between them, arriving in rank order (so the
// opportunistic drains plan in batches) and in reverse (one plan at
// completion): the sum must equal the canonical tree's and the same node's
// with the fusion off, bit for bit — and the fusion must actually have run.
func TestFusedPlanKeepsGrouping(t *testing.T) {
	const size = 1100 // past one foldGrain, not a multiple of the kernels' 16
	cancel := []float64{1e16, 1, -1e16, 1}
	vecFor := func(r int) []float64 {
		v := make([]float64, size)
		for i := range v {
			v[i] = cancel[(r+i)%4] * float64(1+(r*i)%3)
		}
		return v
	}
	var fusedCalls atomic.Int64 // the plan kernel runs on the worker pool
	prevTo := addPairTo
	addPairTo = func(dst, a, b []float64) { fusedCalls.Add(1); prevTo(dst, a, b) }
	defer func() { addPairTo = prevTo }()

	// fold runs one node over a roster where skip[r] ranks do not contribute:
	// odd skipped ranks abstain through stage, even ones are evicted.
	fold := func(n int, skip map[int]bool, reverse, fuse bool) ([]float64, int) {
		defer func(prev bool) { fusePairAdd = prev }(fusePairAdd)
		fusePairAdd = fuse
		f := newFoldNode()
		f.arm(n, nil)
		for k := 0; k < n; k++ {
			r := k
			if reverse {
				r = n - 1 - k
			}
			switch {
			case !skip[r]:
				f.stage(r, vecFor(r), nil, 1)
			case r%2 == 1:
				f.stage(r, nil, nil, 1)
			default:
				f.skip(r)
			}
		}
		res, weight, err := f.complete(false)
		if err != nil {
			t.Fatal(err)
		}
		return *res, weight
	}

	differs := false
	for _, k := range []int{2, 3, 4, 7, 8} {
		for _, skips := range []bool{false, true} {
			n, skip := k, map[int]bool{}
			if skips { // n >= 5, so the three ranks are distinct
				n = k + 3
				skip = map[int]bool{1: true, n / 2: true, n - 1: true}
			}
			ranked := make([][]float64, n)
			left := make([]float64, size)
			for r := range ranked {
				if !skip[r] {
					ranked[r] = vecFor(r)
					for i, x := range ranked[r] {
						left[i] += x
					}
				}
			}
			want, _ := canonicalSum(ranked)
			differs = differs || !sameBits(want, left)
			for _, reverse := range []bool{false, true} {
				name := fmt.Sprintf("contributions=%d skips=%v reverse=%v", k, skips, reverse)
				before := fusedCalls.Load()
				got, weight := fold(n, skip, reverse, true)
				if k >= 4 && !skips && fusedCalls.Load() == before { // ranks 0..3 always share a plan
					t.Errorf("%s: no pair-add was fused", name)
				}
				if weight != k || !sameBits(got, want) {
					t.Errorf("%s: fused fold (weight %d) deviates from the canonical tree", name, weight)
				}
				before = fusedCalls.Load()
				plain, _ := fold(n, skip, reverse, false)
				if fusedCalls.Load() != before {
					t.Errorf("%s: the hook did not turn the fusion off", name)
				}
				if !sameBits(got, plain) {
					t.Errorf("%s: fused and unfused folds differ", name)
				}
			}
		}
	}
	if !differs {
		t.Error("the test vectors sum the same under a left fold: grouping is not being observed")
	}
}

// Scalar kernels with the x86 NaN rule written out (of two NaNs, the first
// operand's payload): what both of tensor's lanes — the assembly here, the Go
// loops under -tags purego — are held to through the fold.
func refSum(x, y float64) float64 {
	switch {
	case x != x:
		return math.Float64frombits(math.Float64bits(x) | 1<<51)
	case y != y:
		return math.Float64frombits(math.Float64bits(y) | 1<<51)
	}
	return x + y
}

func useRefKernels(t *testing.T) {
	p1, p2, p3, p4 := addTo, addPair, addPairTo, scaleBy
	t.Cleanup(func() { addTo, addPair, addPairTo, scaleBy = p1, p2, p3, p4 })
	addTo = func(dst, src []float64) {
		for i := range dst {
			dst[i] = refSum(dst[i], src[i])
		}
	}
	addPair = func(dst, a, b []float64) {
		for i := range dst {
			dst[i] = refSum(a[i], b[i])
		}
	}
	addPairTo = func(dst, a, b []float64) {
		for i := range dst {
			dst[i] = refSum(dst[i], refSum(a[i], b[i]))
		}
	}
	scaleBy = func(dst []float64, s float64) {
		for i := range dst {
			if dst[i] == dst[i] {
				dst[i] *= s
			}
		}
	}
}

// TestTreeKernelLanesAgree folds one seeded 64-member round — NaNs of a
// different payload per member sharing lanes, infinities of both signs,
// cancelling magnitudes — through a fanout-8 tree and the flat collective,
// once on tensor's kernels and once on the reference kernels above, members
// racing each other so plans batch and fuse differently every time: one
// result, to the bit. Run with and without -tags purego, it pins the AVX2
// lane and the Go lane to the same reference, hence to each other.
func TestTreeKernelLanesAgree(t *testing.T) {
	const members, size = 64, 2100
	rng := rand.New(rand.NewSource(64))
	ids := make([]int, members)
	vecs := make([][]float64, members)
	for m := range vecs {
		ids[m] = m
		v := make([]float64, size)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64((i+m)%33-16))
			switch {
			case i%97 == m%3: // a third of the members meet in this lane, on both sides of every merge
				v[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(m%2)<<63 | uint64(m+1))
			case i%101 == m%7:
				v[i] = math.Inf(1 - 2*(m%2))
			}
		}
		vecs[m] = v
	}
	round := func(s *Server) []float64 {
		s.SetRoster(ids)
		s.BeginRound(0, ids)
		out := make([][]float64, members)
		var wg sync.WaitGroup
		for m := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.AggregateModel(m, 0, vecs[m])
				if err != nil {
					t.Error(err)
				}
				out[m] = res
			}()
		}
		wg.Wait()
		return out[0]
	}
	want := round(NewTree(8))
	nans := 0
	for _, x := range want {
		if x != x {
			nans++
		}
	}
	if nans == 0 || nans == size {
		t.Fatalf("%d of %d result lanes are NaN: the round does not exercise payload propagation", nans, size)
	}
	for i := 0; i < 5; i++ {
		if got := round(NewTree(8)); !sameBits(got, want) {
			t.Fatalf("tree run %d deviates from the first on the same kernels", i)
		}
	}
	if got := round(NewServer(members)); !sameBits(got, want) {
		t.Fatal("flat collective deviates from the tree")
	}
	useRefKernels(t)
	for i := 0; i < 5; i++ {
		if got := round(NewTree(8)); !sameBits(got, want) {
			t.Fatalf("tree on the reference kernels (run %d) deviates from tensor's", i)
		}
	}
	if got := round(NewServer(members)); !sameBits(got, want) {
		t.Fatal("flat collective on the reference kernels deviates from tensor's")
	}
}

// TestTreeSteadyStateAllocs pins the ownership hand-off: after two warm-up
// rounds a collective over a fanout-8, 64-member tree allocates the root's
// published vector and small change — not a vector per node; a relay-mode
// subtree, whose forwarded sum comes back when the upstream hook returns, not
// even that; and neither does a tree or a flat collective whose every waiter
// read the result under a Hold, so that it goes back with the shell.
func TestTreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer par.SetWorkers(par.SetWorkers(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const members, size, rounds = 64, 4096, 20
	global := make([]float64, size)
	relay := NewTree(8)
	relay.SetUpstream(0, func(round int, leg sparse.Leg, rankLo int, sum []float64, weight int) ([]float64, error) {
		return global, nil
	})
	for _, c := range []struct {
		name   string
		tr     *Tree
		held   bool
		budget uint64
	}{
		{"tree", NewTree(8), false, 8*size + 2048},
		{"relay", relay, false, 2048},
		{"tree, every waiter holds", NewTree(8), true, 2048},
		{"flat, every waiter holds", NewServer(members), true, 2048},
	} {
		f := newBenchFleetOn(c.tr, members, size)
		defer f.close()
		f.held = c.held
		f.round(0)
		f.round(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			f.round(2 + r)
		}
		runtime.ReadMemStats(&after)
		if f.failure != nil {
			t.Fatal(f.failure)
		}
		perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%s: %d B/round (one vector is %d B)", c.name, perRound, 8*size)
		if perRound > c.budget {
			t.Errorf("%s: a steady-state collective allocates %d B, budget %d B", c.name, perRound, c.budget)
		}
	}
}
