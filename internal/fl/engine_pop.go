package fl

import (
	"context"
	"fmt"
	"sync"

	"fedsu/internal/netem"
	"fedsu/internal/par"
	"fedsu/internal/sparse"
)

// slotProxy rebinds a physical client slot's collective identity to the
// population id of whichever cohort member the slot plays this round.
// Strategy syncers capture their clientID at construction; in population
// mode that id is the slot index, while the aggregation tier ranks by
// population ids — the proxy substitutes the current member id on every
// collective call. memberID is written by the engine between rounds,
// strictly before the round's slot goroutines are spawned (the goroutine
// start is the happens-before edge), and never during a round.
type slotProxy struct {
	agg      sparse.Aggregator
	memberID int
}

func (p *slotProxy) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return sparse.AggModel(context.Background(), p.agg, p.memberID, round, values)
}

func (p *slotProxy) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return sparse.AggError(context.Background(), p.agg, p.memberID, round, values)
}

func (p *slotProxy) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return sparse.AggModel(ctx, p.agg, p.memberID, round, values)
}

func (p *slotProxy) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return sparse.AggError(ctx, p.agg, p.memberID, round, values)
}

// setupPopulation validates the population-mode configuration and builds
// the registry and the population timing model. Called once from
// NewEngineWithShards, before clients are constructed.
func (e *Engine) setupPopulation() error {
	cfg := &e.cfg
	if cfg.Population <= 0 {
		if cfg.Cohort != 0 {
			return fmt.Errorf("fl: Cohort = %d without Population; cohort sampling is a population-mode knob", cfg.Cohort)
		}
		if cfg.Fanout != 0 {
			return fmt.Errorf("fl: Fanout = %d without Population; the tree collective is the population-scale path", cfg.Fanout)
		}
		return nil
	}
	if cfg.Async.Enabled() {
		return fmt.Errorf("fl: population mode is synchronous-only (cohort rounds are barriers); disable Async")
	}
	if cfg.Cohort == 0 {
		cfg.Cohort = cfg.NumClients
	}
	if cfg.Cohort != cfg.NumClients {
		return fmt.Errorf("fl: Cohort = %d but NumClients = %d; each slot plays exactly one sampled member, so they must match", cfg.Cohort, cfg.NumClients)
	}
	if cfg.Population < cfg.Cohort {
		return fmt.Errorf("fl: Population = %d below Cohort = %d", cfg.Population, cfg.Cohort)
	}
	if cfg.Fanout != 0 && cfg.Fanout < 2 {
		return fmt.Errorf("fl: Fanout = %d; need 0 (flat) or >= 2", cfg.Fanout)
	}

	pop := NewPopulation(cfg.Seed)
	pop.RegisterN(cfg.Population, 1)

	// The timing model needs a tree fanout; a flat collective at
	// population scale is the single-tier degenerate case, which
	// PopulationModel reproduces when the fanout covers the whole cohort.
	netemFanout := cfg.Fanout
	if netemFanout == 0 {
		netemFanout = cfg.Cohort
		if netemFanout < 2 {
			netemFanout = 2
		}
	}
	pc := cfg.PopNetem
	if pc == (netem.PopulationConfig{}) {
		pc = netem.DefaultPopulationConfig(cfg.Population, netemFanout)
	} else {
		if pc.PopulationSize != cfg.Population {
			return fmt.Errorf("fl: PopNetem population %d != engine population %d", pc.PopulationSize, cfg.Population)
		}
		if pc.Fanout == 0 {
			pc.Fanout = netemFanout
		}
	}
	model, err := netem.NewPopulationModel(pc)
	if err != nil {
		return fmt.Errorf("fl: %w", err)
	}
	e.pop = pop
	e.popModel = model
	return nil
}

// Population exposes the device registry (nil outside population mode).
func (e *Engine) Population() *Population { return e.pop }

// slotCollective returns the aggregator handed to the next client slot's
// strategy factory: the collective directly in classic mode, a member-id
// rebinding proxy over it in population mode.
func (e *Engine) slotCollective() sparse.Aggregator {
	var agg sparse.Aggregator = e.server
	if e.pop != nil {
		p := &slotProxy{agg: e.server}
		e.proxies = append(e.proxies, p)
		agg = p
	}
	// The chain wraps the member-upload boundary: submissions and results
	// pass through the chain's wire image, exactly what a TCP transport
	// ships, while the tree's internal partial cascade stays raw float64.
	return sparse.WrapAggregator(agg, e.chain)
}

// runPopRound executes one population-mode round: sample the cohort,
// time it through the population-scale network model, rebind slots to
// their members, and fold through the configured collective. The global
// the cohort receives is bit-identical at every fanout (every topology
// runs the canonical rank-aligned fold), so Fanout is purely a systems
// knob.
func (e *Engine) runPopRound(ctx context.Context, evaluate bool) (RoundStats, error) {
	k := e.round
	cohort := e.pop.SampleCohort(k, e.cfg.Cohort)
	if len(cohort) != len(e.clients) {
		return RoundStats{}, fmt.Errorf("fl: round %d: cohort of %d for %d slots", k, len(cohort), len(e.clients))
	}
	// Rebind each slot to the member it plays BEFORE any goroutine spawns:
	// the spawn is the happens-before edge the proxies rely on.
	for i, p := range e.proxies {
		p.memberID = cohort[i]
	}

	// Timing through the population model: per-member loads reuse the
	// previous round's actual payloads (full model on the first round),
	// and the round closes on the earliest participation quorum, then the
	// partial cascade climbs the tree.
	scale := float64(e.wireParams()) / float64(e.evalModel.Size())
	computeSec := e.compute.RoundCompute(e.wireParams(), e.cfg.LocalIters)
	loads := e.prevLoads
	if loads == nil {
		full := int(float64(e.wire().DenseBytes(e.evalModel.Size())) * scale)
		loads = netem.UniformCohortLoad(len(cohort), full, full, computeSec)
	}
	partialBytes := sparse.PartialPayloadSize(e.wireParams())
	outcome := e.popModel.CohortRound(k, cohort, loads, partialBytes)

	slotOf := make(map[int]int, len(cohort))
	for i, id := range cohort {
		slotOf[id] = i
	}
	isParticipant := make([]bool, len(e.clients))
	for _, id := range outcome.Participants {
		isParticipant[slotOf[id]] = true
	}

	coll := e.server
	coll.SetRoster(cohort)
	coll.BeginRound(k, outcome.Participants)
	evictionsBefore, timeoutsBefore := coll.EvictionCount(), coll.TimeoutCount()
	tierBefore := coll.Stats()

	// Concurrent local training + synchronization, under the same
	// process-global compute-token budget as classic rounds (token
	// released before the sync barrier — see RunRound).
	type result struct {
		loss    float64
		traffic sparse.Traffic
		err     error
	}
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

	stats := RoundStats{
		Round:        k,
		Participants: len(outcome.Participants),
		CohortSize:   len(cohort),
		Tiers:        outcome.Tiers,
		RootRxBytes:  outcome.RootRxBytes,
	}
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

	stats.Duration = outcome.Duration
	e.simTime += outcome.Duration
	stats.SimTime = e.simTime
	stats.Evicted = coll.EvictionCount() - evictionsBefore
	stats.Timeouts = coll.TimeoutCount() - timeoutsBefore
	st := coll.Stats()
	stats.Tiers = st.Tiers
	stats.LeafFolds = st.LeafFolds - tierBefore.LeafFolds
	stats.ForwardedPartials = st.ForwardedPartials - tierBefore.ForwardedPartials
	for i, ev := range st.TierEvictions {
		prev := 0
		if i < len(tierBefore.TierEvictions) {
			prev = tierBefore.TierEvictions[i]
		}
		if d := ev - prev; d > 0 {
			for len(stats.TierEvictions) <= i {
				stats.TierEvictions = append(stats.TierEvictions, 0)
			}
			stats.TierEvictions[i] = d
		}
	}

	if err := ctx.Err(); err != nil {
		// Mirror RunRound's post-barrier cancellation contract: the round
		// is complete fleet-side, so advance the counter and skip only the
		// evaluation.
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

// popGuard rejects fleet mutations in population mode: the slot count is
// the cohort size, and membership churn is modeled by sampling, not by
// joins and departures.
func (e *Engine) popGuard(op string) error {
	if e.pop != nil {
		return fmt.Errorf("fl: %s is unavailable in population mode; membership churn is modeled by cohort sampling", op)
	}
	return nil
}
