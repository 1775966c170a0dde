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
	collective
	agg      sparse.Aggregator
	memberID int
}

func newSlotProxy(agg sparse.Aggregator) *slotProxy {
	p := &slotProxy{agg: agg}
	p.collective = p.aggregate
	return p
}

// aggregate submits to the leg's collective as the slot's current member.
func (p *slotProxy) aggregate(ctx context.Context, leg sparse.Leg, _, round int, values []float64) ([]float64, error) {
	return leg.Dispatch(ctx, p.agg, p.memberID, round, values)
}

func (p *slotProxy) ConcurrentLegs() bool { return sparse.ConcurrentLegs(p.agg) }

// setupPopulation builds the registry and the population timing model (the
// mode table has already passed the configuration). Called once from
// NewEngineWithShards, before clients are constructed.
func (e *Engine) setupPopulation() error {
	cfg := &e.cfg
	if cfg.Population <= 0 {
		return nil
	}
	if cfg.Population < cfg.NumClients {
		return fmt.Errorf("fl: Population = %d below the cohort of NumClients = %d", cfg.Population, cfg.NumClients)
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
		p := newSlotProxy(e.server)
		e.proxies = append(e.proxies, p)
		agg = p
	}
	// The chain wraps the member-upload boundary: submissions and results
	// pass through the chain's wire image, exactly what a TCP transport
	// ships, while the tree's internal partial cascade stays raw float64.
	return sparse.WrapAggregator(agg, e.chain)
}
