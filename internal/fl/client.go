package fl

import (
	"context"
	"fmt"
	"math/rand"

	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/sparse"
	"fedsu/internal/tensor"
)

// Client is one federated participant: a private model replica, an
// optimizer, a local data shard, and a synchronization strategy.
type Client struct {
	// ID is the stable client identifier used by the aggregation server.
	ID int

	model  *nn.Model
	dt     tensor.DType
	opt    *opt.SGD
	shard  *data.Subset
	syncer sparse.Syncer
	rng    *rand.Rand

	vec []float64

	// proxMu enables a FedProx-style proximal term μ/2·‖x − x_round‖² in
	// the local objective (Li et al., MLSys 2020), the non-IID mitigation
	// the paper notes FedSU composes with. Zero disables it.
	proxMu   float64
	roundVec []float64
}

// NewClient assembles a client. The model must be a fresh replica with the
// same layout and initialization as every other client's.
func NewClient(id int, model *nn.Model, optimizer *opt.SGD, shard *data.Subset, syncer sparse.Syncer, seed int64) *Client {
	return &Client{
		ID:     id,
		model:  model,
		dt:     model.DType(),
		opt:    optimizer,
		shard:  shard,
		syncer: syncer,
		rng:    rand.New(rand.NewSource(seed)),
		vec:    make([]float64, model.Size()),
	}
}

// Model exposes the client's model replica (used by evaluation and
// microscopes; treat as read-only between rounds).
func (c *Client) Model() *nn.Model { return c.model }

// Syncer exposes the client's synchronization strategy.
func (c *Client) Syncer() sparse.Syncer { return c.syncer }

// ShardSize returns the number of local samples.
func (c *Client) ShardSize() int { return c.shard.Len() }

// SetProximal enables the FedProx proximal term with coefficient mu
// (0 disables it).
func (c *Client) SetProximal(mu float64) { c.proxMu = mu }

// TrainLocal runs iters mini-batch SGD iterations on the local shard and
// returns the mean training loss. With a proximal coefficient set, each
// iteration's gradient is augmented with μ(x − x_round), anchoring local
// training to the round-start (global) model.
func (c *Client) TrainLocal(iters, batchSize int) float64 {
	// A client whose shard is empty — possible once cohorts are sampled
	// from a population far larger than the corpus — trains nothing and
	// later submits its unchanged round-start replica (plain FedAvg
	// semantics for a data-less device).
	if c.shard.Len() == 0 {
		return 0
	}
	if c.proxMu > 0 {
		if c.roundVec == nil {
			c.roundVec = make([]float64, c.model.Size())
		}
		c.model.ExtractVector(c.roundVec)
	}
	total := 0.0
	for it := 0; it < iters; it++ {
		x, labels := c.shard.SampleBatchOf(c.dt, c.rng, batchSize)
		c.model.ZeroGrad()
		total += c.model.TrainStep(x, labels)
		if c.proxMu > 0 {
			c.addProximalGrad()
		}
		c.opt.Step(c.model.Params())
	}
	// Between rounds a replica keeps parameters only: its activations go
	// back to the arena for whichever client trains next.
	c.model.ReleaseScratch()
	return total / float64(iters)
}

// addProximalGrad accumulates μ(x − x_round) into the parameter gradients.
// The arithmetic runs at the parameter storage width (the same policy as
// the SGD update it augments); the float64 anchor values were extracted
// from the same-width model, so narrowing them back is exact.
func (c *Client) addProximalGrad() {
	off := 0
	for _, p := range c.model.Params() {
		n := p.Value.Len()
		if !p.NoOpt {
			anchor := c.roundVec[off : off+n]
			if c.dt == tensor.Float32 {
				proximalGrad(tensor.DataOf[float32](p.Value), tensor.DataOf[float32](p.Grad), anchor, float32(c.proxMu)) //lint:allow precision -- proximal coefficient rounds once at the dispatch boundary
			} else {
				proximalGrad(tensor.DataOf[float64](p.Value), tensor.DataOf[float64](p.Grad), anchor, c.proxMu)
			}
		}
		off += n
	}
}

// proximalGrad adds mu·(v − anchor) to g at storage width.
func proximalGrad[E tensor.Elem](v, g []E, anchor []float64, mu E) {
	for i := range v {
		g[i] += mu * (v[i] - E(anchor[i])) //lint:allow precision -- anchor narrows exactly: it was extracted from this same-width model
	}
}

// SyncRound extracts the post-training vector, runs the strategy's
// synchronization for the round, loads the resulting vector back into the
// model, and returns the traffic accounting.
func (c *Client) SyncRound(round int, contributor bool) (sparse.Traffic, error) {
	return c.SyncRoundCtx(context.Background(), round, contributor)
}

// SyncRoundCtx is SyncRound with a context propagated into the strategy's
// collectives (when both the strategy and the aggregator support it), so a
// cancelled round does not leave the client parked on a barrier forever.
func (c *Client) SyncRoundCtx(ctx context.Context, round int, contributor bool) (sparse.Traffic, error) {
	c.model.ExtractVector(c.vec)
	out, tr, err := sparse.SyncContext(ctx, c.syncer, round, c.vec, contributor)
	if err != nil {
		return sparse.Traffic{}, fmt.Errorf("client %d: %w", c.ID, err)
	}
	c.model.LoadVector(out)
	return tr, nil
}
