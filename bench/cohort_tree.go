package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// treeParams sizes cohort_tree.
type treeParams struct {
	population, cohort, fanout int
	n, vectors                 int
	warmup, window             int
	checkEvery                 int // rounds between flat-server and naive-mean checks
}

// scale is the size of every workload: the benchmark's full scale, or the toy
// scale the smoke test runs at.
type scale struct {
	sim   simParams
	dense tcpParams
	chain tcpParams
	tree  treeParams
}

var fullScale = scale{
	sim:   simParams{clients: 4, iters: 5, batch: 8, samples: 2048, modelScale: 4, warmup: 5, window: 100, evalEvery: 10, target: 0.95},
	dense: tcpParams{n: 600_000, clients: 4, warmup: 5, window: 100, replay: 32},
	chain: tcpParams{n: 150_000, clients: 4, warmup: 3, window: 60, replay: 8, compress: "topk,q4,rans", guard: true},
	tree:  treeParams{population: 100_000, cohort: 256, fanout: 8, n: 50_000, vectors: 16, warmup: 50, window: 500, checkEvery: 100},
}

// cohortTree drives fl.Tree directly, the way a cross-device coordinator
// does: sample a cohort, declare it, and let one goroutine per member submit.
// The goroutine per member is the API's calling convention (the engine's
// population rounds and the rpc handlers both block one per submission), not
// a choice of the load generator.
type cohortTree struct {
	p    treeParams
	pop  *fl.Population
	tree *fl.Tree
	flat *fl.Server
	vecs [][]float64
	size []int // wire bytes of each vector as a member would upload it
	aggs []sparse.ContextAggregator
	rec  *recorder

	cohort    []int
	results   [][]float64
	flatMS    []float64
	wire      int
	fp        uint64
	attempted int
	failed    int
	stats0    fl.TierStats
	folds     int
	partials  int
}

func setupTree(ctx context.Context, seed int64, sc scale, rec func(int) *recorder) (instance, error) {
	p := sc.tree
	t := &cohortTree{p: p, pop: fl.NewPopulation(seed), tree: fl.NewTree(p.fanout), flat: fl.NewServer(p.cohort),
		results: make([][]float64, p.cohort)}
	t.pop.RegisterN(p.population, 1)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < p.vectors; v++ {
		vec := make([]float64, p.n)
		for i := range vec {
			vec[i] = rng.NormFloat64()
		}
		t.vecs = append(t.vecs, vec)
		t.size = append(t.size, sparse.MessageBytes(vec))
	}
	if rec != nil {
		t.rec = rec(p.cohort)
	}
	for j := 0; j < p.cohort; j++ {
		var a sparse.ContextAggregator = t.tree
		if t.rec != nil {
			a = &tracedAgg{inner: t.tree, rec: t.rec, lane: 1 + j}
		}
		t.aggs = append(t.aggs, a)
	}
	for r := 0; r < p.warmup; r++ {
		if _, err := t.step(ctx, r); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	t.stats0 = t.tree.Stats()
	return t, nil
}

// vectorOf picks the vector member id submits in round r.
func (t *cohortTree) vectorOf(id, r int) int { return (id + r) % len(t.vecs) }

// submit runs one collective over the cohort through aggs, one goroutine per
// member, and returns when every member has its result.
func (t *cohortTree) submit(ctx context.Context, r int, agg func(j int) sparse.ContextAggregator) error {
	errs := make([]error, len(t.cohort))
	var wg sync.WaitGroup
	for j, id := range t.cohort {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.results[j], errs[j] = agg(j).AggregateModelCtx(ctx, id, r, t.vecs[t.vectorOf(id, r)])
		}()
	}
	wg.Wait()
	t.attempted += len(t.cohort)
	for _, err := range errs {
		if err != nil {
			t.failed++
		}
	}
	return errors.Join(errs...)
}

// step is one absolute round: everything a coordinator does to close it.
func (t *cohortTree) step(ctx context.Context, r int) (time.Duration, error) {
	var round, sample int32
	if t.rec != nil {
		round = t.rec.begin(driverLane, spanRound, r)
		sample = t.rec.begin(driverLane, spanSample, r)
	}
	t0 := time.Now()
	t.cohort = t.pop.SampleCohort(r, t.p.cohort)
	if t.rec != nil {
		t.rec.end(driverLane, sample)
	}
	t.tree.SetRoster(t.cohort)
	t.tree.BeginRound(r, t.cohort)
	err := t.submit(ctx, r, func(j int) sparse.ContextAggregator { return t.aggs[j] })
	d := time.Since(t0)
	if t.rec != nil {
		t.rec.end(driverLane, round)
	}
	return d, err
}

func (t *cohortTree) window() int         { return t.p.window }
func (t *cohortTree) done() bool          { return true }
func (t *cohortTree) close()              {}
func (t *cohortTree) fingerprint() uint64 { return t.fp }

func (t *cohortTree) round(ctx context.Context, r int) (time.Duration, error) {
	return t.step(ctx, t.p.warmup+r)
}

func (t *cohortTree) after(r int) error {
	global := t.results[0]
	if r < t.p.window {
		// Nothing is encoded in-process; this is what the same round costs on
		// the wire under the default codec, charged the way strategies charge
		// Traffic: every member's upload plus the global each downloads.
		for _, id := range t.cohort {
			t.wire += t.size[t.vectorOf(id, t.p.warmup+r)]
		}
		t.wire += len(t.cohort) * sparse.MessageBytes(global)
	}
	if r+1 == t.p.window {
		t.fp = fingerprint(global)
		st := t.tree.Stats()
		t.folds, t.partials = st.LeafFolds-t.stats0.LeafFolds, st.ForwardedPartials-t.stats0.ForwardedPartials
	}
	if r%t.p.checkEvery != 0 {
		return nil
	}
	return t.check(t.p.warmup+r, append([]float64(nil), global...))
}

// check folds the same round's inputs through the flat fl.Server, which must
// agree with the tree bit for bit, and through a naive float64 mean, which
// must agree to 1e-9.
func (t *cohortTree) check(r int, global []float64) error {
	for j, res := range t.results {
		if !sameBits(res, global) {
			return fmt.Errorf("round %d: member %d received a different global", r, j)
		}
	}
	t.flat.SetRoster(t.cohort)
	t.flat.BeginRound(r, t.cohort)
	t0 := time.Now()
	if err := t.submit(context.Background(), r, func(int) sparse.ContextAggregator { return t.flat }); err != nil {
		return err
	}
	t.flatMS = append(t.flatMS, float64(time.Since(t0))/1e6)
	if !sameBits(t.results[0], global) {
		return fmt.Errorf("round %d: tree global %016x differs from fl.Server's %016x", r, fingerprint(global), fingerprint(t.results[0]))
	}
	mean := make([]float64, t.p.n)
	for _, id := range t.cohort {
		for i, x := range t.vecs[t.vectorOf(id, r)] {
			mean[i] += x
		}
	}
	for i := range mean {
		if d := math.Abs(mean[i]/float64(len(t.cohort)) - global[i]); d > 1e-9 {
			return fmt.Errorf("round %d: tree global is %g away from the naive mean at %d", r, d, i)
		}
	}
	return nil
}

func (t *cohortTree) ops() (int, int) {
	return t.attempted, t.failed + t.tree.EvictionCount() + t.tree.TimeoutCount()
}

func (t *cohortTree) finish(ctx context.Context, m map[string]float64) []string {
	w := float64(t.p.window)
	attempted, failed := t.ops()
	m["wire_bytes_per_round"] = float64(t.wire) / w
	m["fl.tree_leaf_folds_per_round"] = float64(t.folds) / w
	m["fl.tree_forwarded_partials_per_round"] = float64(t.partials) / w
	m["fl.evictions"] = float64(t.tree.EvictionCount())
	m["fl.timeouts"] = float64(t.tree.TimeoutCount())
	m["fl.failed_ops_ratio"] = float64(failed) / float64(attempted)
	timed(m, "fl.flat_round_ms_p50", t.flatMS)
	if t.rec == nil {
		return nil
	}
	st := analyze(t.rec, t.p.warmup)
	st.shares(m)
	timed(m, "fl.client_train_ms_p50", st.trainMS)
	timed(m, "fl.barrier_skew_ms_p50", st.skewMS)
	timed(m, "fl.collective_ms_p50", st.collMS)
	timed(m, "fl.sample_cohort_ms_p50", st.sampleMS)
	return nil
}
