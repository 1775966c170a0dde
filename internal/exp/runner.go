package exp

import (
	"context"
	"fmt"
	"math"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/fl"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
	"fedsu/internal/sparse"
	"fedsu/internal/trace"
)

// Config describes one run: what it trains (Workload, Scheme), at what
// scale, under which modes. It is also the facade's fedsu.SimulationConfig.
// Every engine, TCP client and coordinator model size is built from it by
// one recipe (NewEngine, NewClient, ModelSize); how a grid driver runs its
// cells is a Harness.
type Config struct {
	// Workload names the model/dataset pair: "cnn" (EMNIST), "resnet18"
	// (FMNIST) or "densenet121" (CIFAR-10). The grid drivers set it per
	// cell.
	Workload string
	// Scheme names the synchronization strategy, one of fl.StrategyNames.
	// The grid drivers set it per cell.
	Scheme string
	// Clients is the emulated client count.
	Clients int
	// Rounds is the maximum rounds per run.
	Rounds int
	// LocalIters and BatchSize are the per-round local-training knobs; the
	// paper uses 50 and 32.
	LocalIters, BatchSize int
	// Samples is the dataset size.
	Samples int
	// ModelScale divides model widths (1 = paper scale).
	ModelScale int
	// EvalEvery evaluates the global model every n rounds.
	EvalEvery int
	// Seed drives all randomness.
	Seed int64
	// FedSU carries the FedSU hyper-parameters (T_ℛ, T_𝒮, θ, variant).
	FedSU core.Options
	// Netem overrides the cluster timing model (zero value keeps
	// netem.DefaultConfig at the run's client count); NumClients and Seed
	// are filled from the run when left zero.
	Netem netem.Config
	// Population switches runs to population-scale cohort rounds
	// (fl.Config.Population): Population registered devices, a
	// Clients-sized cohort sampled per round, timed by the population
	// network model. Zero keeps classic fixed-fleet rounds.
	Population int
	// Fanout >= 2 aggregates population rounds through the hierarchical
	// tree (fl.Config.Fanout); zero keeps the flat collective.
	Fanout int
	// Compress is the wire compression chain spec (fl.Config.Compress),
	// e.g. "topk,q4,rans". Empty keeps the default f32 sparse codec.
	Compress string
	// Artifacts optionally shares one dataset/partition cache across runs
	// and drivers (nil: a single run synthesizes its own, a grid driver
	// uses a private cache).
	Artifacts *Artifacts
}

// FastConfig returns a laptop-scale configuration used by tests and the
// default benchmark harness: the same algorithms and workflow as the paper,
// with fewer clients, iterations, and rounds.
func FastConfig() Config {
	return Config{
		Clients:    8,
		Rounds:     48,
		LocalIters: 10,
		BatchSize:  16,
		Samples:    2048,
		ModelScale: 0, // per-workload EmuScale
		EvalEvery:  2,
		Seed:       1,
		FedSU:      core.DefaultOptions(),
	}
}

// StandardConfig returns a heavier configuration closer to the paper's
// setup (still width-reduced models; raise Rounds/Clients further via flags
// in cmd/fedsu-bench for full fidelity).
func StandardConfig() Config {
	c := FastConfig()
	c.Clients, c.Rounds, c.Samples, c.ModelScale = 32, 150, 4096, 8
	return c
}

// Run is one (workload, scheme) emulated training run.
type Run struct {
	// Workload and Scheme identify the run.
	Workload, Scheme string
	// Stats holds every round's statistics.
	Stats []fl.RoundStats
	// Engine is the (finished) engine, kept for post-hoc inspection
	// (masks, linear fractions, client models).
	Engine *fl.Engine
}

// AccuracyCurve returns the run's held-out accuracy over emulated time as
// a series named name.
func (r *Run) AccuracyCurve(name string) *trace.Series {
	acc := trace.NewSeries(name, "time_s", "accuracy")
	for _, st := range r.Stats {
		if st.Accuracy >= 0 {
			acc.Add(st.SimTime, st.Accuracy)
		}
	}
	return acc
}

// RatioCurve returns the run's per-round sparsification ratio over emulated
// time as a series named name+"-ratio".
func (r *Run) RatioCurve(name string) *trace.Series {
	ratio := trace.NewSeries(name+"-ratio", "time_s", "sparsification_ratio")
	for _, st := range r.Stats {
		ratio.Add(st.SimTime, st.SparsificationRatio)
	}
	return ratio
}

// Traffic returns the run's total up and down wire bytes.
func (r *Run) Traffic() (up, down int64) {
	for _, st := range r.Stats {
		up += int64(st.Traffic.UpBytes)
		down += int64(st.Traffic.DownBytes)
	}
	return up, down
}

// TimeToAccuracy returns the emulated seconds until the held-out accuracy
// first reached target, the number of rounds that took, and whether the
// target was reached; when it was not, the totals of the full run are
// returned.
func (r *Run) TimeToAccuracy(target float64) (seconds float64, rounds int, reached bool) {
	for _, st := range r.Stats {
		if st.Accuracy >= target {
			return st.SimTime, st.Round + 1, true
		}
	}
	if len(r.Stats) == 0 {
		// A zero-round run (Rounds=0, or cancelled before round one) has no
		// trajectory at all: report zero totals rather than panicking.
		return 0, 0, false
	}
	last := r.Stats[len(r.Stats)-1]
	return last.SimTime, last.Round + 1, false
}

// FinalAccuracy returns the last evaluated held-out accuracy (NaN when the
// run never evaluated).
func (r *Run) FinalAccuracy() float64 {
	acc := math.NaN()
	for _, st := range r.Stats {
		if st.Accuracy >= 0 {
			acc = st.Accuracy
		}
	}
	return acc
}

// MeanRoundTime returns the average emulated round duration.
func (r *Run) MeanRoundTime() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	return r.Stats[len(r.Stats)-1].SimTime / float64(len(r.Stats))
}

// MeanSparsification returns the run-average sparsification ratio.
func (r *Run) MeanSparsification() float64 {
	if len(r.Stats) == 0 {
		return 0
	}
	s := 0.0
	for _, st := range r.Stats {
		s += st.SparsificationRatio
	}
	return s / float64(len(r.Stats))
}

// RunOne trains the run cfg names: the engine NewEngine builds, for
// cfg.Rounds rounds.
func RunOne(ctx context.Context, cfg Config) (*Run, error) {
	engine, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	stats, err := engine.Run(ctx, cfg.Rounds, cfg.EvalEvery)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", cfg.Workload, cfg.Scheme, err)
	}
	return &Run{Workload: cfg.Workload, Scheme: cfg.Scheme, Stats: stats, Engine: engine}, nil
}

// NewEngine builds the engine of the run cfg names. RunOne, the grid
// drivers, the trajectory drivers of Figs. 1, 2 and 6, and
// fedsu.NewSimulation all train the engine it returns.
func NewEngine(cfg Config) (*fl.Engine, error) {
	r, err := newRecipe(cfg)
	if err != nil {
		return nil, err
	}
	ds, shards := r.data()
	engine, err := fl.NewEngineWithShards(r.fl, r.model, ds, shards, r.factory)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", cfg.Workload, cfg.Scheme, err)
	}
	return engine, nil
}

// NewClient builds client id of the run cfg names over agg: the client
// NewEngine's fleet of cfg.Clients holds under that id — every client
// synthesizes the fleet's dataset from the shared seed and takes its
// Dirichlet shard by id, the deterministic analogue of a device owning
// private data. Its strategy is bound to cfg's compression chain for byte
// accounting only: agg, a TCP transport, does the encoding.
func NewClient(cfg Config, id int, agg sparse.Aggregator) (*fl.Client, error) {
	r, err := newRecipe(cfg)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= cfg.Clients {
		return nil, fmt.Errorf("exp: client %d of a fleet of %d", id, cfg.Clients)
	}
	chain, err := r.fl.Chain()
	if err != nil {
		return nil, err
	}
	_, shards := r.data()
	return fl.BuildClient(r.fl, id, r.model(), shards[id], r.factory, agg, chain), nil
}

// ModelSize is the parameter count of cfg's model, which reads only its
// workload, scale and seed: a coordinator sizes its session with it.
func ModelSize(cfg Config) (int, error) {
	w, err := WorkloadByName(cfg.Workload)
	if err != nil {
		return 0, err
	}
	return recipe{cfg: cfg, w: w}.model().Size(), nil
}

// recipe is what a Config resolves to: the one place its workload, scheme
// and scale become fl's inputs, so an engine's fleet, a TCP client and a
// coordinator's model size cannot drift apart.
type recipe struct {
	cfg     Config
	w       Workload
	fl      fl.Config
	factory sparse.Factory
}

// newRecipe resolves cfg.
func newRecipe(cfg Config) (recipe, error) {
	w, err := WorkloadByName(cfg.Workload)
	if err != nil {
		return recipe{}, err
	}
	factory, err := fl.StrategyFactoryWith(cfg.Scheme, cfg.FedSU)
	if err != nil {
		return recipe{}, err
	}
	return recipe{cfg: cfg, w: w, factory: factory, fl: fl.Config{
		NumClients:     cfg.Clients,
		LocalIters:     cfg.LocalIters,
		BatchSize:      cfg.BatchSize,
		LR:             w.EffectiveLR(),
		WeightDecay:    0.001,
		DirichletAlpha: 1.0,
		EvalSamples:    256,
		EvalBatch:      64,
		Seed:           cfg.Seed,
		Netem:          cfg.Netem,
		WireParams:     w.WireParams,
		Population:     cfg.Population,
		Fanout:         cfg.Fanout,
		Compress:       cfg.Compress,
	}}, nil
}

// model builds one replica; every replica of a run starts from one seed.
func (r recipe) model() *nn.Model {
	return r.w.Model(r.w.EffectiveScale(r.cfg.ModelScale), r.cfg.Seed+97)
}

// data returns the dataset and its Dirichlet partition over the fleet. With
// cfg.Artifacts set both come from the cache (built once per key, shared
// read-only across concurrent runs); the cached and fresh paths are
// bit-identical because both artifacts are pure functions of their key.
func (r recipe) data() (*data.Dataset, []*data.Subset) {
	n, seed := r.cfg.Samples, r.cfg.Seed+31
	if a := r.cfg.Artifacts; a != nil {
		ds := a.Dataset(r.w, n, seed)
		return ds, a.Partition(r.w, ds, n, seed, r.fl.NumClients, r.fl.DirichletAlpha, r.fl.Seed)
	}
	ds := r.w.Dataset(n, seed)
	return ds, data.PartitionDirichlet(ds, r.fl.NumClients, r.fl.DirichletAlpha, r.fl.Seed)
}

// named returns cfg naming the (w, scheme) run.
func (cfg Config) named(w Workload, scheme string) Config {
	cfg.Workload, cfg.Scheme = w.Name, scheme
	return cfg
}
