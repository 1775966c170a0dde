package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fedsu"
	"fedsu/internal/ckpt"
	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/sparse"
	"fedsu/internal/tensor"
)

// simParams sizes sim_cnn.
type simParams struct {
	clients, iters, batch int
	samples, modelScale   int
	warmup, window        int
	evalEvery             int
	target                float64 // accuracy the run must reach
}

// simCNN is the researcher path: fl.Engine in-process, the CNN on the EMNIST
// stand-in, FedSU on the default wire.
type simCNN struct {
	p      simParams
	seed   int64
	engine *fl.Engine
	rec    *recorder
	aggs   []*tracedAgg

	elapsed      time.Duration  // this instance's timed rounds and evaluations so far
	traffic      sparse.Traffic // all clients, summed over the count window
	ratio        float64
	emuSeconds   float64
	pred         float64
	fp           uint64
	target       int // round index of the evaluation that reached the target, 0 until then
	targetWall   float64
	targetEmu    float64
	lastLoss     float64
	attempted    int
	evictions    int
	timeouts     int
	roundsRun    int
	trainLossBad bool
}

// simConfig is the one description both constructions below are built from.
func simConfig(p simParams, seed int64) fedsu.SimulationConfig {
	return fedsu.SimulationConfig{
		Workload: "cnn", Scheme: "fedsu", Clients: p.clients, LocalIters: p.iters, BatchSize: p.batch,
		Samples: p.samples, ModelScale: p.modelScale, Seed: seed,
	}
}

// tracedEngine assembles what fedsu.NewSimulation assembles for simConfig,
// with the strategy factory wrapped so every Sync and collective is a span.
// The traced and untraced runs must end on the same fingerprint; that check
// is what keeps this copy honest.
func (s *simCNN) tracedEngine() (*fl.Engine, error) {
	cfg := simConfig(s.p, s.seed)
	w := exp.CNNWorkload()
	inner, err := fl.StrategyFactoryWith(cfg.Scheme, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	factory := func(id, size int, agg sparse.Aggregator) sparse.Syncer {
		ta := &tracedAgg{inner: agg, rec: s.rec, lane: 1 + id, captureAt: captureRounds(s.p.warmup, s.p.window)}
		s.aggs = append(s.aggs, ta)
		return &tracedSyncer{inner: inner(id, size, ta), rec: s.rec, lane: 1 + id}
	}
	flCfg := fl.Config{
		NumClients: cfg.Clients, LocalIters: cfg.LocalIters, BatchSize: cfg.BatchSize,
		LR: w.EffectiveLR(), WeightDecay: 0.001, DirichletAlpha: 1.0,
		EvalSamples: 256, EvalBatch: 64, Seed: cfg.Seed, WireParams: w.WireParams,
	}
	ds := w.Dataset(cfg.Samples, cfg.Seed+31)
	builder := func() *nn.Model { return w.ModelOf(tensor.Float64, cfg.ModelScale, cfg.Seed+97) }
	return fl.NewEngine(flCfg, builder, ds, factory)
}

func setupSim(ctx context.Context, seed int64, sc scale, rec func(int) *recorder) (instance, error) {
	s := &simCNN{p: sc.sim, seed: seed}
	var err error
	if rec != nil {
		s.rec = rec(s.p.clients)
		s.engine, err = s.tracedEngine()
	} else {
		var sim *fedsu.Simulation
		if sim, err = fedsu.NewSimulation(simConfig(s.p, seed)); err == nil {
			s.engine = sim.Engine()
		}
	}
	if err != nil {
		return nil, err
	}
	for r := 0; r < s.p.warmup; r++ {
		if _, err := s.engine.RunRound(ctx, false); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	return s, nil
}

func (s *simCNN) window() int { return s.p.window }
func (s *simCNN) done() bool  { return s.target > 0 }
func (s *simCNN) close()      {}

func (s *simCNN) fingerprint() uint64 { return s.fp }

func (s *simCNN) round(ctx context.Context, r int) (time.Duration, error) {
	var id int32
	if s.rec != nil {
		id = s.rec.begin(driverLane, spanRound, s.p.warmup+r)
	}
	t0 := time.Now()
	st, err := s.engine.RunRound(ctx, false)
	d := time.Since(t0)
	if s.rec != nil {
		s.rec.end(driverLane, id)
	}
	if err != nil {
		return 0, err
	}
	s.elapsed += d
	s.roundsRun++
	s.attempted += s.p.clients
	s.evictions += st.Evicted
	s.timeouts += st.Timeouts
	if math.IsNaN(st.TrainLoss) || math.IsInf(st.TrainLoss, 0) {
		s.trainLossBad = true
	}
	if r < s.p.window {
		s.traffic.Add(st.Traffic)
		s.ratio += st.SparsificationRatio
		s.emuSeconds += st.Duration
		s.pred = st.PredictableFraction
	}
	if s.target == 0 {
		s.targetEmu = st.SimTime
	}
	return d, nil
}

func (s *simCNN) after(r int) error {
	if r+1 == s.p.window {
		s.fp = fingerprint(s.engine.GlobalVector())
	}
	if (r+1)%s.p.evalEvery != 0 {
		return nil
	}
	var id int32
	if s.rec != nil {
		id = s.rec.begin(driverLane, spanEval, s.p.warmup+r)
	}
	t0 := time.Now()
	acc, loss := s.engine.EvaluateGlobal()
	s.elapsed += time.Since(t0)
	if s.rec != nil {
		s.rec.end(driverLane, id)
	}
	s.lastLoss = loss
	if s.target == 0 && acc >= s.p.target {
		s.target = r + 1
		s.targetWall = s.elapsed.Seconds()
	}
	return nil
}

func (s *simCNN) ops() (int, int) { return s.attempted, s.evictions + s.timeouts }

func (s *simCNN) finish(ctx context.Context, m map[string]float64) []string {
	var bad []string
	if math.IsNaN(s.lastLoss) || math.IsInf(s.lastLoss, 0) || s.trainLossBad {
		bad = append(bad, "loss is not finite")
	}
	clients := s.engine.Clients()
	first := clients[0].Model().Vector()
	for _, c := range clients[1:] {
		if !sameBits(c.Model().Vector(), first) {
			bad = append(bad, fmt.Sprintf("client %d holds a different vector from client 0 after the last round", c.ID))
		}
	}
	w := float64(s.p.window)
	k := float64(s.p.clients)
	m["wire_bytes_per_round"] = float64(s.traffic.UpBytes+s.traffic.DownBytes) / w
	m["core.sparsification_ratio"] = s.ratio / w
	m["core.synced_params_per_round"] = float64(s.traffic.SyncedParams) / w / k
	m["core.checked_params_per_round"] = float64(s.traffic.CheckedParams) / w / k
	m["core.predictable_fraction_final"] = s.pred
	m["netem.emu_round_s_mean"] = s.emuSeconds / w
	m["netem.emu_time_to_target_s"] = s.targetEmu
	m["fl.time_to_target_s"] = s.targetWall
	m["fl.rounds_to_target"] = float64(s.target)
	m["fl.evictions"] = float64(s.evictions)
	m["fl.timeouts"] = float64(s.timeouts)
	m["fl.failed_ops_ratio"] = float64(s.evictions+s.timeouts) / float64(s.attempted)
	if s.rec == nil {
		return bad
	}

	st := analyze(s.rec, s.p.warmup)
	st.shares(m)
	timed(m, "fl.client_train_ms_p50", st.trainMS)
	timed(m, "fl.barrier_skew_ms_p50", st.skewMS)
	timed(m, "fl.collective_ms_p50", st.collMS)
	timed(m, "core.sync_self_ms_p50", st.syncSelfMS)
	timed(m, "fl.eval_ms_p50", st.evalMS)
	m["core.collectives_per_round"] = float64(len(st.collMS)) / float64(s.roundsRun) / k
	m["core.error_rounds_share"] = float64(len(st.collErrorMS)) / float64(s.roundsRun) / k
	if err := s.probeCheckpoint(m); err != nil {
		bad = append(bad, err.Error())
	}
	s.probeModel(m)
	// A client outside a round's quorum abstains, so not every client has
	// captured submissions; any one that has will do.
	for _, a := range s.aggs {
		if len(a.captured) > 0 {
			probeWire(m, []*tracedAgg{a})
			break
		}
	}
	return bad
}

// probeCheckpoint times saving and loading the traced run's state: the time
// training would stall for a checkpoint.
func (s *simCNN) probeCheckpoint(m map[string]float64) error {
	dir, err := os.MkdirTemp("", "bench-ckpt-") // under TMPDIR, which run.sh keeps inside the checkout
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sim_cnn.ckpt")
	t0 := time.Now()
	c := s.engine.Checkpoint()
	c.Workload = "cnn"
	if err := ckpt.Save(path, c); err != nil {
		return err
	}
	m["ckpt.save_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	back, err := ckpt.Load(path, "cnn", s.engine.Strategy())
	if err != nil {
		return err
	}
	m["ckpt.load_ms"] = float64(time.Since(t0)) / 1e6
	if !sameBits(back.Model, c.Model) {
		return fmt.Errorf("checkpoint does not load back the model it saved")
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["ckpt.bytes"] = float64(info.Size())
	return nil
}

// probeModel times the public pieces of one local SGD iteration on a fresh
// replica of the workload's model and client 0's shard.
func (s *simCNN) probeModel(m map[string]float64) {
	cfg := simConfig(s.p, s.seed)
	w := exp.CNNWorkload()
	model := w.ModelOf(tensor.Float64, cfg.ModelScale, cfg.Seed+97)
	shard := data.PartitionDirichlet(w.Dataset(cfg.Samples, cfg.Seed+31), cfg.Clients, 1.0, cfg.Seed)[0]
	rng := rand.New(rand.NewSource(cfg.Seed))
	sgd := opt.NewSGD(w.EffectiveLR(), opt.WithWeightDecay(0.001))
	x, labels := shard.SampleBatchOf(tensor.Float64, rng, cfg.BatchSize)
	vec := model.Vector()

	timed(m, "data.sample_batch_ms_p50", timeMS(func() { shard.SampleBatchOf(tensor.Float64, rng, cfg.BatchSize) }))
	timed(m, "nn.forward_ms_p50", timeMS(func() { model.Loss(x, labels) }))
	timed(m, "nn.train_step_ms_p50", timeMS(func() { model.ZeroGrad(); model.TrainStep(x, labels) }))
	m["nn.backward_ms_p50"] = m["nn.train_step_ms_p50"] - m["nn.forward_ms_p50"]
	timed(m, "opt.step_ms_p50", timeMS(func() { sgd.Step(model.Params()) }))
	timed(m, "nn.extract_vector_ms_p50", timeMS(func() { model.ExtractVector(vec) }))
	timed(m, "nn.load_vector_ms_p50", timeMS(func() { model.LoadVector(vec) }))

	// fc1 of the CNN at this scale: a batch of flattened conv features times
	// the first fully-connected layer's weights.
	in, out := 16*(64/cfg.ModelScale), 512/cfg.ModelScale
	a, b, dst := tensor.New(cfg.BatchSize, in), tensor.New(in, out), tensor.New(cfg.BatchSize, out)
	a.Fill(0.5)
	b.Fill(0.25)
	const reps = 50
	ms := median(timeMS(func() {
		for i := 0; i < reps; i++ {
			tensor.MatMulInto(dst, a, b)
		}
	}))
	m["tensor.matmul_gflops"] = 2 * float64(cfg.BatchSize*in*out*reps) / (ms / 1e3) / 1e9
}
