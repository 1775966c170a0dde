package fl

import (
	"fmt"
	"math/rand"

	"fedsu/internal/data"
	"fedsu/internal/netem"
	"fedsu/internal/sparse"
)

// AddClient admits a new participant between rounds, implementing the
// paper's dynamicity handling (Sec. V): the joiner is built like every
// member of the fleet (newClient) and then downloads the latest global
// model and the fleet-shared view of the strategy state (sparse.Shared:
// under FedSU, the predictability mask and no-checking information) from an
// incumbent, so its future decisions match the fleet's. Its local view
// starts empty: it has submitted nothing.
//
// The netem cluster is rebuilt for the new size; per-client compute speeds
// are redrawn deterministically from the configured seed.
func (e *Engine) AddClient(shard *data.Subset) (*Client, error) {
	if err := CheckMode(e.cfg, "AddClient"); err != nil {
		return nil, err
	}
	if len(e.clients) == 0 {
		return nil, fmt.Errorf("fl: cannot join an empty fleet")
	}
	id := e.nextID
	e.nextID++

	c := e.newClient(id, shard)
	c.model.LoadVector(e.clients[0].model.Vector())
	shared := sparse.AppendState(nil, e.clients[0].syncer, sparse.Shared)
	install, err := sparse.DecodeState(c.syncer, shared, sparse.Shared, c.model.Size())
	if err != nil {
		return nil, fmt.Errorf("fl: state transfer to joiner: %w", err)
	}
	install()
	e.clients = append(e.clients, c)
	return c, e.resize()
}

// AddClientFromDataset admits a new participant whose local shard is n
// samples drawn uniformly (without replacement) from the engine's dataset
// using the given seed. It is the convenience form of AddClient for
// emulated runs.
func (e *Engine) AddClientFromDataset(n int, seed int64) (*Client, error) {
	if n <= 0 || n > e.dataset.Len() {
		return nil, fmt.Errorf("fl: joiner shard size %d outside [1, %d]", n, e.dataset.Len())
	}
	rng := newShardRNG(seed)
	perm := rng.Perm(e.dataset.Len())
	return e.AddClient(data.NewSubset(e.dataset, perm[:n]))
}

// RemoveClient drops a participant between rounds. The departed client's
// data simply stops contributing; the fleet continues unchanged otherwise.
func (e *Engine) RemoveClient(id int) error {
	if err := CheckMode(e.cfg, "RemoveClient"); err != nil {
		return err
	}
	for i, c := range e.clients {
		if c.ID == id {
			e.clients = append(e.clients[:i], e.clients[i+1:]...)
			if len(e.clients) == 0 {
				return fmt.Errorf("fl: removed the last client")
			}
			return e.resize()
		}
	}
	return fmt.Errorf("fl: no client with id %d", id)
}

func newShardRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// resize rebuilds the size-dependent machinery after a membership change;
// the next round's admit declares the new roster.
func (e *Engine) resize() error {
	cfg := e.cfg.Netem
	cfg.NumClients = len(e.clients)
	cluster, err := netem.NewCluster(cfg)
	if err != nil {
		return fmt.Errorf("fl: resize: %w", err)
	}
	e.cluster = cluster
	e.prevLoads = nil // re-estimate payloads next round
	return nil
}
