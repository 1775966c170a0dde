package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/fl"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
	"fedsu/internal/tensor"
)

// Config sets the emulation scale shared by all experiments.
type Config struct {
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
	// DType selects the compute precision for every model replica in the
	// grid. The zero value (tensor.Float64) reproduces the historical
	// results bit-for-bit; tensor.Float32 halves model/scratch memory and
	// makes the wire codec lossless. Under float32 the FedSU managers run
	// with Quantize set so the speculative state machine operates entirely
	// in the wire image the clients actually store.
	DType tensor.DType
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
	// ProxMu adds a FedProx proximal term to every client's local
	// objective (fl.Config.ProxMu); zero, the paper's setup, disables it.
	ProxMu float64
	// Async switches runs to buffered-async rounds (fl.Config.Async);
	// Rounds then counts global applications. Zero keeps sync barriers.
	Async fl.AsyncConfig
	// EventThreshold enables event-triggered uploads (fl.Config
	// counterpart); zero disables gating.
	EventThreshold float64
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
	// Verbose receives progress lines when non-nil. Grid drivers wrap it so
	// concurrent runs emit whole, per-run-prefixed lines.
	Verbose io.Writer

	// Parallel is the number of experiment runs in flight at once in the
	// grid drivers (RunEndToEnd, RunFig8, the sweeps); values below 1 mean
	// sequential. Results are bit-identical at any setting.
	Parallel int
	// Artifacts optionally shares one dataset/partition cache across
	// drivers (nil gives each driver a private cache).
	Artifacts *Artifacts
	// Clock, when non-nil, timestamps each grid run for per-run wall-clock
	// reporting (wired to time.Now by cmd/fedsu-bench; nil keeps library
	// runs deterministic and silent).
	Clock func() time.Time
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
	return Config{
		Clients:    32,
		Rounds:     150,
		LocalIters: 10,
		BatchSize:  16,
		Samples:    4096,
		ModelScale: 8,
		EvalEvery:  2,
		Seed:       1,
		FedSU:      core.DefaultOptions(),
	}
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

// RunOne executes one (workload, scheme) training run per the config.
func RunOne(ctx context.Context, cfg Config, w Workload, scheme string) (*Run, error) {
	return runOne(ctx, cfg, w, scheme, nil)
}

// runOne is RunOne with an optional artifact cache (see newEngine).
func runOne(ctx context.Context, cfg Config, w Workload, scheme string, arts *Artifacts) (*Run, error) {
	engine, err := newEngine(cfg, w, scheme, arts)
	if err != nil {
		return nil, err
	}
	logf(cfg.Verbose, "run %s/%s: %d clients, %d rounds", w.Name, scheme, cfg.Clients, cfg.Rounds)
	stats, err := engine.Run(ctx, cfg.Rounds, cfg.EvalEvery)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", w.Name, scheme, err)
	}
	return &Run{Workload: w.Name, Scheme: scheme, Stats: stats, Engine: engine}, nil
}

// NewEngine builds the engine for one (workload, scheme) run of cfg. It is
// the one place a Config becomes an fl.Config: RunOne, the grid drivers, the
// trajectory drivers of Figs. 1, 2 and 6, and fedsu.NewSimulation all train
// the engine it returns. Under float32 the FedSU managers run with Quantize
// set, so the speculative state machine works in the wire image the clients
// actually store.
func NewEngine(cfg Config, w Workload, scheme string) (*fl.Engine, error) {
	return newEngine(cfg, w, scheme, nil)
}

// newEngine is NewEngine with an optional artifact cache: when arts is
// non-nil, the dataset and its Dirichlet partition come from the cache
// (built once per key, shared read-only across concurrent runs) instead of
// being synthesized per run. Cached and uncached paths are bit-identical
// because both artifacts are pure functions of their key.
func newEngine(cfg Config, w Workload, scheme string, arts *Artifacts) (*fl.Engine, error) {
	fedsuOpts := cfg.FedSU
	if cfg.DType == tensor.Float32 {
		fedsuOpts.Quantize = true
	}
	factory, err := fl.StrategyFactoryWith(scheme, fedsuOpts)
	if err != nil {
		return nil, err
	}
	flCfg := fl.Config{
		NumClients:     cfg.Clients,
		LocalIters:     cfg.LocalIters,
		BatchSize:      cfg.BatchSize,
		LR:             w.EffectiveLR(),
		WeightDecay:    0.001,
		ProxMu:         cfg.ProxMu,
		DirichletAlpha: 1.0,
		EvalSamples:    256,
		EvalBatch:      64,
		Seed:           cfg.Seed,
		Netem:          cfg.Netem,
		WireParams:     w.WireParams,
		DType:          cfg.DType,
		Async:          cfg.Async,
		EventThreshold: cfg.EventThreshold,
		Population:     cfg.Population,
		Fanout:         cfg.Fanout,
		Compress:       cfg.Compress,
	}
	dsSeed := cfg.Seed + 31
	builder := func() *nn.Model { return w.ModelOf(cfg.DType, w.EffectiveScale(cfg.ModelScale), cfg.Seed+97) }
	var ds *data.Dataset
	var shards []*data.Subset
	if arts != nil {
		ds = arts.Dataset(w, cfg.Samples, dsSeed)
		shards = arts.Partition(w, ds, cfg.Samples, dsSeed, flCfg.NumClients, flCfg.DirichletAlpha, flCfg.Seed)
	} else {
		ds = w.Dataset(cfg.Samples, dsSeed)
	}
	engine, err := fl.NewEngineWithShards(flCfg, builder, ds, shards, factory)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", w.Name, scheme, err)
	}
	return engine, nil
}
