package fl

import (
	"context"
	"fmt"
	"math/rand"

	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

// Client is one federated participant: a private model replica, an
// optimizer, a local data shard, and a synchronization strategy.
type Client struct {
	// ID is the stable client identifier used by the aggregation server.
	ID int

	model  *nn.Model
	opt    *opt.SGD
	shard  *data.Subset
	syncer sparse.Syncer
	seed   int64
	rng    *rand.Rand // re-seeded every round (TrainLocal)

	vec    []float64
	labels []int // TrainLocal's batch labels
}

// NewClient assembles a client. The model must be a fresh replica with the
// same layout and initialization as every other client's. seed keys the
// client's batch draws together with its id and the round (TrainLocal).
func NewClient(id int, model *nn.Model, optimizer *opt.SGD, shard *data.Subset, syncer sparse.Syncer, seed int64) *Client {
	return &Client{
		ID:     id,
		model:  model,
		opt:    optimizer,
		shard:  shard,
		syncer: syncer,
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		vec:    make([]float64, model.Size()),
	}
}

// Model exposes the client's model replica (used by evaluation and
// microscopes; treat as read-only between rounds).
func (c *Client) Model() *nn.Model { return c.model }

// LR is the client's current learning rate.
func (c *Client) LR() float64 { return c.opt.LR() }

// Syncer exposes the client's synchronization strategy.
func (c *Client) Syncer() sparse.Syncer { return c.syncer }

// ShardSize returns the number of local samples.
func (c *Client) ShardSize() int { return c.shard.Len() }

// TrainLocal runs round's iters mini-batch SGD iterations on the local
// shard and returns the mean training loss.
//
// The round fixes the batches, drawn from a stream seeded with a hash of
// (seed, client, round): a joiner or a restart trains exactly as a client
// that ran from the start.
func (c *Client) TrainLocal(round, iters, batchSize int) float64 {
	// A client whose shard is empty — possible once cohorts are sampled
	// from a population far larger than the corpus — trains nothing and
	// later submits its unchanged round-start replica (plain FedAvg
	// semantics for a data-less device).
	if c.shard.Len() == 0 {
		return 0
	}
	c.rng.Seed(int64(codec.Mix64(uint64(c.seed) + codec.Mix64(uint64(c.ID)+codec.Mix64(uint64(round))))))
	// Every step's batch is drawn into one arena tensor and the client's
	// own labels.
	ch, side := c.shard.ImageShape()
	x := tensor.GetScratch(batchSize, ch, side, side)
	if cap(c.labels) < batchSize {
		c.labels = make([]int, batchSize)
	}
	labels := c.labels[:batchSize]
	total := 0.0
	for it := 0; it < iters; it++ {
		c.shard.SampleBatchInto(c.rng, x, labels)
		c.model.ZeroGrad()
		total += c.model.TrainStep(x, labels)
		c.opt.Step(c.model.Params())
	}
	tensor.PutScratch(x)
	// Between rounds a replica keeps parameters only: its activations go
	// back to the arena for whichever client trains next.
	c.model.ReleaseScratch()
	return total / float64(iters)
}

// SyncRoundCtx extracts the post-training vector, runs the strategy's
// synchronization for the round, loads the resulting vector back into the
// model, and returns the traffic accounting. ctx propagates into the
// strategy's collectives (when both the strategy and the aggregator support
// it), so a cancelled round does not leave the client parked on a barrier
// forever.
func (c *Client) SyncRoundCtx(ctx context.Context, round int, contributor bool) (sparse.Traffic, error) {
	c.model.ExtractVector(c.vec)
	out, tr, err := sparse.SyncContext(ctx, c.syncer, round, c.vec, contributor)
	if err != nil {
		return sparse.Traffic{}, fmt.Errorf("client %d: %w", c.ID, err)
	}
	c.model.LoadVector(out)
	return tr, nil
}
