package fl

import (
	"context"
	"fmt"

	"fedsu/internal/netem"
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
		if cfg.Fanout != 0 {
			return fmt.Errorf("fl: Fanout = %d without Population; the tree collective is the population-scale path", cfg.Fanout)
		}
		return nil
	}
	if cfg.Async.Enabled() {
		return fmt.Errorf("fl: population mode is synchronous-only (cohort rounds are barriers); disable Async")
	}
	if cfg.Population < cfg.NumClients {
		return fmt.Errorf("fl: Population = %d below the cohort of NumClients = %d", cfg.Population, cfg.NumClients)
	}
	if cfg.Fanout != 0 && cfg.Fanout < 2 {
		return fmt.Errorf("fl: Fanout = %d; need 0 (flat) or >= 2", cfg.Fanout)
	}

	pop := NewPopulation(cfg.Seed)
	pop.RegisterN(cfg.Population, 1)

	// The timing model needs a tree fanout; a flat collective at
	// population scale is the single-tier degenerate case, which
	// PopulationModel reproduces when the fanout covers the whole cohort.
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = max(cfg.NumClients, 2)
	}
	model, err := netem.NewPopulationModel(netem.DefaultPopulationConfig(cfg.Population, fanout))
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

// popGuard rejects fleet mutations in population mode: the slot count is
// the cohort size, and membership churn is modeled by sampling, not by
// joins and departures.
func (e *Engine) popGuard(op string) error {
	if e.pop != nil {
		return fmt.Errorf("fl: %s is unavailable in population mode; membership churn is modeled by cohort sampling", op)
	}
	return nil
}
