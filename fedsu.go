// Package fedsu is a Go implementation of FedSU — Federated Learning with
// Speculative Updating (Yu et al., ICDCS 2025) — together with the complete
// substrate needed to train, emulate, and evaluate it: a pure-Go neural
// network stack, synthetic federated datasets with Dirichlet non-IID
// partitioning, a bandwidth-emulated cluster, the CMFL and APF baseline
// sparsifiers, and a TCP deployment mode.
//
// # Three ways in
//
// Standalone manager — wire FedSU into your own federated system by giving
// each client a Manager and implementing Aggregator over your transport:
//
//	mgr, _ := fedsu.NewManager(clientID, modelSize, myAggregator, fedsu.DefaultOptions())
//	newParams, traffic, _ := mgr.Sync(round, localParams, true)
//
// Emulated simulation — reproduce the paper's experiments end to end:
//
//	sim, _ := fedsu.NewSimulation(fedsu.SimulationConfig{
//		Workload: "cnn", Scheme: "fedsu", Clients: 16, Rounds: 100,
//	})
//	stats, _ := sim.Run(context.Background())
//
// Real network — run the coordinator and clients as separate processes with
// StartCoordinator and DialCoordinator (see cmd/fedsu-server and
// cmd/fedsu-client).
package fedsu

import (
	"context"

	"fedsu/internal/ckpt"
	"fedsu/internal/core"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/flrpc"
	"fedsu/internal/netem"
	"fedsu/internal/sparse"
)

// Options configures the FedSU algorithm (thresholds T_ℛ and T_𝒮, EMA decay
// θ, and the ablation variant).
type Options = core.Options

// Variant selects full FedSU or one of the paper's ablation variants.
type Variant = core.Variant

// Algorithm variants (Fig. 8 of the paper).
const (
	VariantFull = core.VariantFull
	VariantV1   = core.VariantV1
	VariantV2   = core.VariantV2
)

// DefaultOptions returns the paper's evaluation configuration
// (T_ℛ = 0.01, T_𝒮 = 1.0, θ = 0.9).
func DefaultOptions() Options { return core.DefaultOptions() }

// Manager is the per-client FedSU state machine: it maintains the
// predictability mask, performs speculative updating, and runs the
// error-feedback protocol.
type Manager = core.Manager

// NewManager builds a FedSU manager for a model with size scalar
// parameters, using agg for the global collectives.
func NewManager(clientID, size int, agg Aggregator, opts Options) (*Manager, error) {
	return core.NewManager(clientID, size, agg, opts)
}

// Aggregator is the server-side collective interface a FedSU deployment
// must provide (element-wise averaging of model values and prediction
// errors).
type Aggregator = sparse.Aggregator

// Syncer is the common interface of all synchronization strategies (FedSU
// and the baselines). The vector Sync returns is the strategy's own, valid
// until the next Sync on the same strategy; copy it to keep it longer.
type Syncer = sparse.Syncer

// Traffic accounts one client's communication during one synchronization.
type Traffic = sparse.Traffic

// MessageBytes is the actual wire cost of one collective message carrying
// vec under the binary vector codec (framing plus exact encoded payload);
// nil — an abstention — costs the framing header alone. Strategies charge
// their Traffic with this.
func MessageBytes(vec []float64) int { return sparse.MessageBytes(vec) }

// DenseMessageBytes is MessageBytes for a fully-dense n-parameter vector,
// the full-model reference cost SparsificationRatio measures savings
// against.
func DenseMessageBytes(n int) int { return sparse.DenseMessageBytes(n) }

// NewFedAvg, NewCMFL, and NewAPF expose the baseline strategies for
// side-by-side deployments.
func NewFedAvg(clientID, size int, agg Aggregator) Syncer {
	return sparse.NewFedAvg(clientID, size, agg)
}

// NewCMFL constructs the CMFL baseline with the given relevance threshold
// (the paper uses 0.8).
func NewCMFL(clientID, size int, agg Aggregator, relevance float64) Syncer {
	return sparse.NewCMFL(clientID, size, agg, relevance)
}

// NewAPF constructs the APF baseline with the given stability threshold
// (the paper uses 0.05).
func NewAPF(clientID, size int, agg Aggregator, stability float64) Syncer {
	return sparse.NewAPF(clientID, size, agg, stability)
}

// NewQSGD constructs the quantization baseline with the given bit width
// (2..16), the compression family the paper's related work contrasts
// sparsification against.
func NewQSGD(clientID, size int, agg Aggregator, bits int, seed int64) (Syncer, error) {
	return sparse.NewQSGD(clientID, size, agg, bits, seed)
}

// RoundStats reports one round of an emulated run.
type RoundStats = fl.RoundStats

// SimulationConfig describes an emulated federated run over one of the
// paper's workloads. It is exp.Config, the one description of a run that
// the experiment drivers, the facade and the TCP client all build from;
// NewSimulation fills its zero-value defaults. Its Artifacts cache is the
// experiment drivers'; a simulation leaves it nil.
type SimulationConfig = exp.Config

// Simulation is a configured emulated run.
type Simulation struct {
	engine *fl.Engine
	cfg    SimulationConfig // defaults filled
}

// NewSimulation assembles an emulated run: it fills the zero-value
// defaults (8 clients, 50 rounds, 5 local iterations of batch 8, 1024
// samples, evaluation every 2 rounds, DefaultOptions) and builds the engine
// exp.NewEngine builds, so a simulation trains exactly the run exp.RunOne
// would.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	for _, d := range []struct {
		field *int
		value int
	}{
		{&cfg.Clients, 8}, {&cfg.Rounds, 50}, {&cfg.LocalIters, 5},
		{&cfg.BatchSize, 8}, {&cfg.Samples, 1024}, {&cfg.EvalEvery, 2},
	} {
		if *d.field <= 0 {
			*d.field = d.value
		}
	}
	if cfg.FedSU == (Options{}) {
		cfg.FedSU = DefaultOptions()
	}
	engine, err := exp.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{engine: engine, cfg: cfg}, nil
}

// SaveCheckpoint persists everything the simulation's next round reads
// (global model, round counter, emulated clock, and every client's strategy
// state) atomically to path.
func (s *Simulation) SaveCheckpoint(path string) error {
	c := s.engine.Checkpoint()
	c.Workload = s.cfg.Workload
	return ckpt.Save(path, c)
}

// LoadCheckpoint restores a previously-saved checkpoint; the workload,
// scheme and client count must match this simulation's configuration. Run
// then finishes the configured Rounds, bit-equal to the run that saved it.
func (s *Simulation) LoadCheckpoint(path string) error {
	c, err := ckpt.Load(path, s.cfg.Workload, s.engine.Strategy())
	if err != nil {
		return err
	}
	return s.engine.Restore(c)
}

// Run executes the rounds left until the configured Rounds (all of them,
// unless a checkpoint was loaded) and returns their statistics.
func (s *Simulation) Run(ctx context.Context) ([]RoundStats, error) {
	return s.engine.Run(ctx, s.cfg.Rounds, s.cfg.EvalEvery)
}

// RunRound executes a single round (evaluating the global model when
// evaluate is set), for callers that drive training incrementally.
func (s *Simulation) RunRound(ctx context.Context, evaluate bool) (RoundStats, error) {
	return s.engine.RunRound(ctx, evaluate)
}

// Engine exposes the underlying engine for advanced use (client
// join/leave, model inspection).
func (s *Simulation) Engine() *fl.Engine { return s.engine }

// Join admits a new client mid-run with a fresh shard of n dataset samples,
// exercising the paper's dynamicity handling: the joiner receives the
// latest model plus the fleet-shared strategy state (under FedSU, the
// predictability-mask and no-checking information).
func (s *Simulation) Join(n int, seed int64) error {
	_, err := s.engine.AddClientFromDataset(n, seed)
	return err
}

// Leave removes the client with the given id between rounds.
func (s *Simulation) Leave(id int) error { return s.engine.RemoveClient(id) }

// Evaluate scores the current global model on the held-out set.
func (s *Simulation) Evaluate() (accuracy, loss float64) { return s.engine.EvaluateGlobal() }

// NetworkConfig describes the emulated cluster (bandwidths, latency,
// participation fraction, compute heterogeneity).
type NetworkConfig = netem.Config

// DefaultNetworkConfig returns the paper's testbed parameters: 13.7 Mbps
// client links, a 10 Gbps server, and a 70 % participation quorum.
func DefaultNetworkConfig(clients int) NetworkConfig { return netem.DefaultConfig(clients) }

// StrategyNames lists the recognized scheme names.
func StrategyNames() []string { return fl.StrategyNames() }

// ErrEvicted reports that the coordinator evicted this client after a
// missed collective deadline; match with errors.Is.
var ErrEvicted = fl.ErrEvicted

// CoordinatorConfig tunes the TCP coordinator's fault tolerance (barrier
// deadline, heartbeat grace window).
type CoordinatorConfig = flrpc.Config

// CoordinatorService is a running coordinator: a net.Listener plus the
// serve loop's terminal error (Err/Done).
type CoordinatorService = flrpc.Service

// ClientConfig tunes the TCP client's fault tolerance (retry budget,
// backoff, heartbeat interval).
type ClientConfig = flrpc.DialConfig

// StartCoordinator launches the TCP aggregation coordinator for a fleet of
// numClients training a model of modelSize parameters, with fault
// tolerance disabled (blocking barriers). Close the returned service to
// stop it.
func StartCoordinator(addr string, numClients, modelSize int) (*CoordinatorService, error) {
	return StartCoordinatorWith(addr, CoordinatorConfig{NumClients: numClients, ModelSize: modelSize})
}

// StartCoordinatorWith launches the TCP coordinator with explicit fault
// tolerance: a positive Deadline bounds every aggregation barrier, evicting
// clients that miss it so one crash cannot wedge the session.
func StartCoordinatorWith(addr string, cfg CoordinatorConfig) (*CoordinatorService, error) {
	c, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		return nil, err
	}
	return flrpc.Listen(addr, c)
}

// DialCoordinator joins a TCP session and returns an Aggregator usable with
// NewManager (or any baseline strategy).
func DialCoordinator(addr, name string) (*flrpc.Client, error) {
	return flrpc.Dial(addr, name)
}

// DialCoordinatorWith joins a TCP session with explicit fault-tolerance
// settings (retry/backoff budget, reconnect, heartbeats).
func DialCoordinatorWith(addr string, cfg ClientConfig) (*flrpc.Client, error) {
	return flrpc.DialWith(addr, cfg)
}

// WorkloadNames lists the workload names SimulationConfig accepts.
func WorkloadNames() []string { return exp.WorkloadNames() }
