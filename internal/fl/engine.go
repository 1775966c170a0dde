package fl

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fedsu/internal/data"
	"fedsu/internal/netem"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/par"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

// Config assembles an emulated federated training run. The experiment
// drivers and fedsu.NewSimulation all write it in one place,
// internal/exp's NewEngine.
type Config struct {
	// NumClients is the client count (128 in the paper's testbed); in
	// population mode it is also the per-round cohort size.
	NumClients int
	// LocalIters is F_s, the SGD iterations per round (50 in the paper).
	LocalIters int
	// BatchSize is the mini-batch size (32 in the paper).
	BatchSize int
	// LR and WeightDecay configure the client optimizer, plain SGD as in
	// the paper.
	LR, WeightDecay float64
	// ProxMu adds a FedProx proximal term μ/2·‖x − x_round‖² to each
	// client's local objective; zero (the paper's setup) disables it.
	ProxMu float64
	// LRDecayWarm, when positive, applies the 1/√(1+step/warm) learning
	// rate schedule that satisfies Theorem 1's convergence conditions
	// (Eq. 13); zero keeps the paper's constant rate.
	LRDecayWarm int
	// DirichletAlpha controls non-IID label skew (1.0 in the paper).
	DirichletAlpha float64
	// EvalSamples is the held-out evaluation set size.
	EvalSamples int
	// EvalBatch is the evaluation batch size.
	EvalBatch int
	// Seed drives data partitioning and client mini-batch sampling.
	Seed int64
	// Netem configures the cluster timing model; the zero value means
	// netem.DefaultConfig(NumClients). Any other value is used as given,
	// except that NumClients and Seed are filled from the run when zero.
	// Local training is timed by netem.DefaultComputeModel.
	Netem netem.Config
	// WireParams overrides the parameter count used for byte and compute
	// accounting, letting scaled-down models report paper-scale traffic.
	// Zero means the actual model size.
	WireParams int
	// Async switches the run to buffered-async rounds (Async.K >= 1):
	// clients become independent arrival processes and the server applies
	// a staleness-weighted global every K contributions. The zero value
	// keeps synchronous barrier rounds. Async mode requires a full-vector
	// strategy (fedavg, cmfl, qsgd); subset-submitting strategies (fedsu,
	// apf) are rejected at construction because their per-client masks
	// cannot fold into one shared accumulator.
	Async AsyncConfig
	// EventThreshold enables event-triggered participation: a client
	// offers an upload only when the L2 norm of its accumulated change
	// since its last offer crosses the threshold, abstaining with
	// header-only traffic otherwise. Zero disables gating. Composes with
	// every strategy and with both sync and async rounds.
	EventThreshold float64
	// Population enables population-scale cohort rounds: Population
	// registered descriptors form the device registry (10^5–10^6 in
	// cross-device deployments), and each round trains the NumClients-sized
	// cohort drawn by Population.SampleCohort — deterministic given (Seed,
	// round), so runs reproduce and checkpoints resume without storing any
	// sampling state. The engine's NumClients model replicas act as slots:
	// slot i plays cohort member cohort[i] for the round (cross-device
	// clients are stateless between selections, so a slot's replica — which
	// holds the global model after every sync — is exactly the state a
	// freshly selected device would download). Rounds are timed by
	// netem.DefaultPopulationConfig. Zero keeps classic fixed-fleet rounds.
	// Population mode is synchronous-only and the fleet is fixed-size
	// (AddClient/RemoveClient are rejected).
	Population int
	// Fanout >= 2 aggregates population-mode rounds through a hierarchical
	// fl.Tree instead of the flat server: leaves fold cohort blocks and
	// forward one partial upward, so root work is O(fanout) rather than
	// O(cohort). The global is bit-identical to the flat fold at any
	// fanout. Zero keeps the flat collective.
	Fanout int
	// Compress selects the wire compression chain for collective payloads,
	// as a codec chain spec ("topk,q4,rans" — see codec.Parse). Every
	// member upload and global download passes through the chain: in
	// process the aggregator applies the chain's encode→decode image, over
	// TCP the transport ships the actual encoding, and the two runs stay
	// bit-identical. Strategy traffic is charged at the chain's measured
	// message sizes. Empty keeps the default wire (the historical
	// bitmap/index codec), byte-identical to every pre-chain run. Tree
	// partials are unaffected — chains compress the member-upload boundary,
	// not the raw float64 partial cascade.
	Compress string
	// DType declares the compute precision the model builder was configured
	// for. The engine derives the actual precision from the built replicas
	// (batches, evaluation, and the optimizer all follow the model's
	// storage width automatically); a non-zero DType here is a cross-check
	// that fails engine construction loudly when the builder disagrees,
	// instead of silently training at the wrong width. The zero value
	// (tensor.Float64) accepts the historical default.
	DType tensor.DType
}

// DefaultConfig returns the paper's training hyper-parameters at a reduced
// client count suitable for in-process emulation.
func DefaultConfig(numClients int) Config {
	return Config{
		NumClients:     numClients,
		LocalIters:     50,
		BatchSize:      32,
		LR:             0.01,
		WeightDecay:    0.001,
		DirichletAlpha: 1.0,
		EvalSamples:    512,
		EvalBatch:      64,
		Seed:           1,
	}
}

// RoundStats reports one round of an emulated run.
type RoundStats struct {
	// Round is the zero-based round index.
	Round int
	// Duration is the emulated wall-clock span of this round (seconds).
	Duration float64
	// SimTime is the cumulative emulated time at round end.
	SimTime float64
	// Accuracy and Loss are the global model's held-out metrics (NaN if
	// evaluation was skipped this round).
	Accuracy, Loss float64
	// TrainLoss is the mean local training loss across clients.
	TrainLoss float64
	// Traffic aggregates all clients' communication this round.
	Traffic sparse.Traffic
	// SparsificationRatio is the byte-level savings versus full exchange.
	SparsificationRatio float64
	// PredictableFraction is the fraction of parameters in speculative
	// mode (FedSU strategies; zero otherwise).
	PredictableFraction float64
	// Participants is the quorum size used for aggregation.
	Participants int
	// Evicted is the number of clients evicted from the roster this round
	// after missing a collective deadline (zero without a deadline).
	Evicted int
	// Timeouts is the number of collectives this round that were closed by
	// deadline expiry instead of filling naturally.
	Timeouts int
	// StaleDrops is the number of contributions discarded for exceeding
	// AsyncConfig.MaxStaleness during this async version window (zero in
	// synchronous mode).
	StaleDrops int
	// CohortSize is the sampled cohort size (population mode; zero in
	// classic fixed-fleet rounds).
	CohortSize int
	// Tiers is the aggregation-tree depth used this round (1 for the flat
	// collective; zero outside population mode).
	Tiers int
	// LeafFolds and ForwardedPartials count this round's leaf fold batches
	// and upward partial messages (tree collective only).
	LeafFolds int
	// ForwardedPartials counts partial-sum messages sent up the tree this
	// round.
	ForwardedPartials int
	// TierEvictions[i] is this round's eviction count at tier i (0 =
	// leaves); nil when no tier evicted anyone.
	TierEvictions []int
	// RootRxBytes is the modeled payload the root aggregator ingested this
	// round: one partial per root-tier child under a tree, the full cohort
	// upload when flat.
	RootRxBytes int
}

// Engine drives an emulated federated run.
type Engine struct {
	cfg      Config
	clients  []*Client
	server   *Server
	cluster  *netem.Cluster
	strategy string

	// Population mode (cfg.Population > 0): the device registry, the
	// population-scale timing model, and one slot proxy per client
	// rebinding its collective identity each round.
	pop      *Population
	popModel *netem.PopulationModel
	proxies  []*slotProxy

	// chain is the parsed Compress spec (nil for the default wire); it is
	// applied to every slot's aggregator and bound into strategy accounting.
	chain *codec.Chain

	evalModel *nn.Model
	evalX     []evalBatch
	dataset   *data.Dataset

	simTime   float64
	round     int
	prevLoads []netem.ClientLoad

	builder nn.Builder
	factory sparse.Factory
	nextID  int
}

type evalBatch struct {
	x      *tensor.Tensor
	labels []int
}

// NewEngine wires a complete emulated run: it partitions the dataset with
// Dirichlet skew, builds one model replica + optimizer + strategy instance
// per client, and prepares the netem cluster and evaluation set.
func NewEngine(cfg Config, builder nn.Builder, ds *data.Dataset, factory sparse.Factory) (*Engine, error) {
	return NewEngineWithShards(cfg, builder, ds, nil, factory)
}

// NewEngineWithShards is NewEngine with the client partition supplied by the
// caller; nil shards fall back to partitioning internally. Experiment grids
// that run the same (dataset, NumClients, DirichletAlpha, Seed) cell under
// several schemes pass a memoized partition so the Dirichlet split is
// computed once and shared. Shards are read-shared across engines and
// concurrently by client goroutines within an engine, which is safe because
// Subset is immutable after construction (see internal/data); the supplied
// partition must have been built with the same parameters NewEngine would
// use, or the run will not reproduce the unshared path.
func NewEngineWithShards(cfg Config, builder nn.Builder, ds *data.Dataset, shards []*data.Subset, factory sparse.Factory) (*Engine, error) {
	if cfg.NumClients <= 0 {
		return nil, fmt.Errorf("fl: NumClients = %d", cfg.NumClients)
	}
	if cfg.LocalIters <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("fl: LocalIters/BatchSize must be positive, got %d/%d", cfg.LocalIters, cfg.BatchSize)
	}
	switch {
	case cfg.Netem == (netem.Config{}):
		cfg.Netem = netem.DefaultConfig(cfg.NumClients)
	case cfg.Netem.NumClients == 0:
		cfg.Netem.NumClients = cfg.NumClients
	}
	if cfg.Netem.Seed == 0 {
		cfg.Netem.Seed = cfg.Seed
	}
	if cfg.Netem.NumClients != cfg.NumClients {
		return nil, fmt.Errorf("fl: netem clients %d != engine clients %d", cfg.Netem.NumClients, cfg.NumClients)
	}
	cluster, err := netem.NewCluster(cfg.Netem)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}

	probe := builder()
	if probe.DType() != cfg.DType {
		return nil, fmt.Errorf("fl: config DType %v but builder produces %v models", cfg.DType, probe.DType())
	}
	var chain *codec.Chain
	if cfg.Compress != "" {
		if cfg.DType == tensor.Float32 {
			// The float32 compute path relies on the wire being lossless for
			// f32-representable values; chain stages (quantization grids,
			// factor reconstructions) produce values outside that set.
			return nil, fmt.Errorf("fl: Compress %q is unsupported with Float32 models: chain wire images are not float32-exact", cfg.Compress)
		}
		chain, err = codec.Parse(cfg.Compress, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fl: %w", err)
		}
		if chain.IsDefault() {
			chain = nil // the explicit default spec is the legacy wire
		}
	}
	// One collective; Fanout only picks its topology (setupPopulation
	// validates the value).
	var server *Server
	if cfg.Fanout >= 2 {
		server = NewTree(cfg.Fanout)
	} else {
		server = NewServer(cfg.NumClients)
	}
	if cfg.Async.Enabled() {
		if err := server.SetAsync(cfg.Async); err != nil {
			return nil, err
		}
	}
	if cfg.EventThreshold < 0 {
		return nil, fmt.Errorf("fl: EventThreshold = %v must be >= 0", cfg.EventThreshold)
	}
	if shards == nil {
		shards = data.PartitionDirichlet(ds, cfg.NumClients, cfg.DirichletAlpha, cfg.Seed)
	} else if len(shards) != cfg.NumClients {
		return nil, fmt.Errorf("fl: %d shards for %d clients", len(shards), cfg.NumClients)
	}

	e := &Engine{
		cfg:       cfg,
		server:    server,
		cluster:   cluster,
		evalModel: probe,
		dataset:   ds,
		builder:   builder,
		factory:   factory,
		nextID:    cfg.NumClients,
		chain:     chain,
	}
	if err := e.setupPopulation(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumClients; i++ {
		c, err := e.newClient(i, shards[i])
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	e.strategy = e.clients[0].syncer.Name()
	e.buildEvalSet()
	return e, nil
}

// newClient builds client id over shard exactly as every member of the
// fleet is built, whether at construction or when it joins mid-run: a fresh
// model replica, SGD with the configured weight decay and schedule, the
// strategy on the engine's collective and wire (behind the event trigger
// when one is configured), and the proximal term.
func (e *Engine) newClient(id int, shard *data.Subset) (*Client, error) {
	cfg := &e.cfg
	model := e.builder()
	optOpts := []opt.SGDOpt{opt.WithWeightDecay(cfg.WeightDecay)}
	if cfg.LRDecayWarm > 0 {
		optOpts = append(optOpts, opt.WithSchedule(opt.InverseSqrt(cfg.LRDecayWarm)))
	}
	syncer := e.factory(id, model.Size(), e.slotCollective())
	sparse.SetSyncerWire(syncer, e.wire())
	if name := sparse.UnwrapSyncer(syncer).Name(); cfg.Async.Enabled() && name != "fedavg" && name != "cmfl" && name != "qsgd" {
		return nil, fmt.Errorf("fl: async mode requires a full-vector strategy (fedavg/cmfl/qsgd), got %q: subset submissions cannot fold into the shared async accumulator", name)
	}
	if cfg.EventThreshold > 0 {
		syncer = sparse.NewEventTrigger(syncer, cfg.EventThreshold)
	}
	c := NewClient(id, model, opt.NewSGD(cfg.LR, optOpts...), shard, syncer, cfg.Seed+int64(id)*7919)
	c.SetProximal(cfg.ProxMu)
	return c, nil
}

// Strategy returns the active strategy name.
func (e *Engine) Strategy() string { return e.strategy }

// Clients exposes the client list (read-only).
func (e *Engine) Clients() []*Client { return e.clients }

// SimTime returns the cumulative emulated seconds.
func (e *Engine) SimTime() float64 { return e.simTime }

// buildEvalSet reserves a deterministic evaluation sample from the dataset.
func (e *Engine) buildEvalSet() {
	n := e.cfg.EvalSamples
	if n <= 0 || n > e.dataset.Len() {
		n = e.dataset.Len()
	}
	bs := e.cfg.EvalBatch
	if bs <= 0 {
		bs = 64
	}
	for lo := 0; lo < n; lo += bs {
		hi := lo + bs
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, labels := e.dataset.BatchOf(e.evalModel.DType(), idx)
		e.evalX = append(e.evalX, evalBatch{x: x, labels: labels})
	}
}

// wireParams returns the scalar count used for traffic and compute
// accounting.
func (e *Engine) wireParams() int {
	if e.cfg.WireParams > 0 {
		return e.cfg.WireParams
	}
	return e.evalModel.Size()
}

// wire is the engine's negotiated wire: the parsed Compress chain, or the
// legacy default codec when none was configured.
func (e *Engine) wire() sparse.Wire { return sparse.Wire{Chain: e.chain} }

// Chain exposes the negotiated compression chain (nil for the default
// wire) so drivers can report its per-stage byte counters.
func (e *Engine) Chain() *codec.Chain { return e.chain }

// RunRound executes one synchronous round, fixed-fleet or population:
// the membership-and-timing step (admit), concurrent local training and
// synchronization, traffic and timing accounting, and evaluation.
func (e *Engine) RunRound(ctx context.Context, evaluate bool) (RoundStats, error) {
	// Bail before spawning any training goroutines: a cancelled context must
	// not burn a full round of local SGD first.
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	if e.cfg.Async.Enabled() {
		return RoundStats{}, fmt.Errorf("fl: RunRound is the synchronous-barrier driver; async mode runs through Run (event loop)")
	}
	// Dynamic departures (RemoveClient) can drain the roster entirely; every
	// aggregate below divides by the client count and probes clients[0].
	if len(e.clients) == 0 {
		return RoundStats{}, fmt.Errorf("fl: round %d: engine has no clients (all departed?)", e.round)
	}
	k := e.round

	// Timing: per-client loads use the previous round's actual payload
	// bytes (full model on the first round) scaled to wire-parameter size.
	scale := float64(e.wireParams()) / float64(e.evalModel.Size())
	computeSec := netem.DefaultComputeModel().RoundCompute(e.wireParams(), e.cfg.LocalIters)
	full := int(float64(e.wire().DenseBytes(e.evalModel.Size())) * scale)
	stats, isParticipant := e.admit(k, full, computeSec)
	evictionsBefore, timeoutsBefore := e.server.EvictionCount(), e.server.TimeoutCount()
	var tierBefore TierStats
	if e.pop != nil {
		tierBefore = e.server.Stats()
	}

	// Concurrent local training + synchronization.
	type result struct {
		loss    float64
		traffic sparse.Traffic
		err     error
	}
	// At most par.TokenCap() clients run local SGD at once — across ALL
	// engines in the process, not just this one: each client's training
	// already saturates the compute kernels, so oversubscribing goroutines
	// beyond the worker pool only adds scheduler churn and peak memory
	// (every in-flight client holds its model's activations). The budget is
	// process-global so an experiment grid running several engines
	// concurrently (internal/exp's scheduler) still trains at most
	// par.Workers() clients at once. The token is released BEFORE
	// SyncRound — the server's collectives barrier until every client
	// submits, so holding a compute token across the barrier would deadlock
	// whenever clients outnumber tokens.
	results := make([]result, len(e.clients))
	var wg sync.WaitGroup
	for i := range e.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := e.clients[i]
			par.AcquireToken()
			loss := c.TrainLocal(e.cfg.LocalIters, e.cfg.BatchSize)
			par.ReleaseToken()
			tr, err := c.SyncRoundCtx(ctx, k, isParticipant[i])
			results[i] = result{loss: loss, traffic: tr, err: err}
		}(i)
	}
	wg.Wait()

	var trafficTotal sparse.Traffic
	ratioSum := 0.0
	nextLoads := make([]netem.ClientLoad, len(e.clients))
	for i, r := range results {
		if r.err != nil {
			return RoundStats{}, fmt.Errorf("fl: round %d: %w", k, r.err)
		}
		stats.TrainLoss += r.loss
		trafficTotal.Add(r.traffic)
		ratioSum += r.traffic.SparsificationRatio()
		nextLoads[i] = netem.ClientLoad{
			DownBytes:      int(float64(r.traffic.DownBytes) * scale),
			UpBytes:        int(float64(r.traffic.UpBytes) * scale),
			ComputeSeconds: computeSec,
		}
	}
	e.prevLoads = nextLoads
	stats.TrainLoss /= float64(len(e.clients))
	stats.Traffic = trafficTotal
	stats.SparsificationRatio = ratioSum / float64(len(e.clients))
	if pc, ok := sparse.UnwrapSyncer(e.clients[0].syncer).(interface{ PredictableCount() int }); ok {
		stats.PredictableFraction = float64(pc.PredictableCount()) / float64(e.evalModel.Size())
	}

	e.simTime += stats.Duration
	stats.SimTime = e.simTime
	stats.Evicted = e.server.EvictionCount() - evictionsBefore
	stats.Timeouts = e.server.TimeoutCount() - timeoutsBefore
	if e.pop != nil {
		stats.addTierDeltas(tierBefore, e.server.Stats())
	}

	if err := ctx.Err(); err != nil {
		// Cancelled after every client already synchronized: the round is
		// complete server-side, so finish the bookkeeping (round counter,
		// prevLoads, simTime are all updated above) and only skip
		// evaluation. Returning without advancing e.round here would leave
		// checkpoint-resume replaying a round the fleet already applied.
		stats.Accuracy, stats.Loss = -1, -1
		e.round++
		return stats, err
	}

	if evaluate {
		stats.Accuracy, stats.Loss = e.EvaluateGlobal()
	} else {
		stats.Accuracy, stats.Loss = -1, -1
	}
	e.round++
	return stats, nil
}

// admit is a synchronous round's membership-and-timing step. A fixed fleet
// times round k through the netem cluster and opens the collective over
// every client. A population samples the cohort, rebinds each slot to the
// member it plays, times the round through the population model (the
// earliest participation quorum closes it, then the partial cascade climbs
// the tree) and opens the collective over the cohort. Loads are the
// previous round's payloads, or full bytes each way on the first round.
// admit returns the round's stats so far and which slots contribute.
func (e *Engine) admit(k, full int, computeSec float64) (RoundStats, []bool) {
	loads := e.prevLoads
	isParticipant := make([]bool, len(e.clients))
	if e.pop == nil {
		if loads == nil {
			loads = e.cluster.UniformLoad(full, full, computeSec)
		}
		outcome := e.cluster.Round(loads)
		// The roster (who must reach every barrier) is the full client set
		// by stable id — distinct from the participation quorum, and
		// necessary once dynamic join/leave makes ids diverge from
		// {0..n-1}. outcome.Participants are positional cluster slots.
		roster := make([]int, len(e.clients))
		for i, c := range e.clients {
			roster[i] = c.ID
		}
		ids := make([]int, 0, len(outcome.Participants))
		for _, slot := range outcome.Participants {
			isParticipant[slot] = true
			ids = append(ids, roster[slot])
		}
		e.server.SetRoster(roster)
		e.server.BeginRound(k, ids)
		return RoundStats{Round: k, Participants: len(ids), Duration: outcome.Duration}, isParticipant
	}

	cohort := e.pop.SampleCohort(k, len(e.clients))
	// Rebind each slot to the member it plays BEFORE any goroutine spawns:
	// the spawn is the happens-before edge the proxies rely on.
	slotOf := make(map[int]int, len(cohort))
	for i, id := range cohort {
		e.proxies[i].memberID = id
		slotOf[id] = i
	}
	if loads == nil {
		loads = netem.UniformCohortLoad(len(cohort), full, full, computeSec)
	}
	outcome := e.popModel.CohortRound(k, cohort, loads, sparse.PartialPayloadSize(e.wireParams()))
	for _, id := range outcome.Participants {
		isParticipant[slotOf[id]] = true
	}
	e.server.SetRoster(cohort)
	e.server.BeginRound(k, outcome.Participants)
	return RoundStats{
		Round:        k,
		Participants: len(outcome.Participants),
		CohortSize:   len(cohort),
		RootRxBytes:  outcome.RootRxBytes,
		Duration:     outcome.Duration,
	}, isParticipant
}

// addTierDeltas records a population round's tier telemetry: the depth
// after the round and the counters' growth during it.
func (st *RoundStats) addTierDeltas(before, after TierStats) {
	st.Tiers = after.Tiers
	st.LeafFolds = after.LeafFolds - before.LeafFolds
	st.ForwardedPartials = after.ForwardedPartials - before.ForwardedPartials
	for i, ev := range after.TierEvictions {
		prev := 0
		if i < len(before.TierEvictions) {
			prev = before.TierEvictions[i]
		}
		if d := ev - prev; d > 0 {
			for len(st.TierEvictions) <= i {
				st.TierEvictions = append(st.TierEvictions, 0)
			}
			st.TierEvictions[i] = d
		}
	}
}

// Run executes rounds sequentially, evaluating every evalEvery rounds (and
// on the final round), and returns all round statistics.
func (e *Engine) Run(ctx context.Context, rounds, evalEvery int) ([]RoundStats, error) {
	if evalEvery <= 0 {
		evalEvery = 1
	}
	if e.cfg.Async.Enabled() {
		// Async mode: `rounds` counts global applications (versions), the
		// async analogue of a round.
		return e.runAsync(ctx, rounds, evalEvery)
	}
	var out []RoundStats
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		evaluate := (i+1)%evalEvery == 0 || i == rounds-1
		st, err := e.RunRound(ctx, evaluate)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// EvaluateGlobal loads the current global model (client 0's post-sync
// replica — identical across clients) into the evaluation replica and
// scores it on the held-out set. With an empty roster there is no global
// model to read; both metrics come back NaN.
func (e *Engine) EvaluateGlobal() (acc, loss float64) {
	if len(e.clients) == 0 {
		nan := math.NaN()
		return nan, nan
	}
	return e.evaluateVector(e.clients[0].model.Vector())
}

// evaluateVector scores an arbitrary parameter vector on the held-out set.
func (e *Engine) evaluateVector(vec []float64) (acc, loss float64) {
	e.evalModel.LoadVector(vec)
	var accSum, lossSum float64
	n := 0
	for _, b := range e.evalX {
		a, l := e.evalModel.Evaluate(b.x, b.labels)
		w := len(b.labels)
		accSum += a * float64(w)
		lossSum += l * float64(w)
		n += w
	}
	e.evalModel.ReleaseScratch() // idle until the next evaluation
	return accSum / float64(n), lossSum / float64(n)
}

// GlobalVector returns a copy of the current global parameter vector, or
// nil when every client has departed.
func (e *Engine) GlobalVector() []float64 {
	if len(e.clients) == 0 {
		return nil
	}
	return e.clients[0].model.Vector()
}
