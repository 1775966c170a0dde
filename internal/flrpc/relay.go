package flrpc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fedsu/internal/sparse"
)

// Relay is a leaf aggregator of the distributed tree: an RPC server to
// its block of clients (the standard FedSU service — flrpc.Client works
// against it unchanged) and an upstream client of the root coordinator.
// It folds its block's submissions locally in the canonical pairwise
// order and forwards ONE partial-sum message per collective upstream
// (SubmitPartial), then serves the root's published global back to its
// own waiters. The upstream leg reuses the full client fault-tolerance
// stack — retry with exponential backoff + jitter, transparent
// reconnect-and-rejoin, heartbeats — so each tier gets the same
// eviction/liveness treatment as a flat session.
//
// Because the relay's block is an aligned rank block of the root roster
// and both sides run the same canonical fold, a tree of relays publishes
// the same global, to the bit, as one flat coordinator folding every
// client (TestRelayTreeBitIdentity). Bit-identity assumes the relay's
// session is fully joined, so local member ranks coincide with the
// root-roster ranks of the block.
type Relay struct {
	coord *Coordinator
	up    *Client

	mu          sync.Mutex
	lastTraffic int64
}

// RelayConfig assembles a leaf aggregator.
type RelayConfig struct {
	// Upstream is the root coordinator's address.
	Upstream string
	// BlockSize is how many clients this relay serves; the root reserves
	// a contiguous aligned id block of that size (it must not exceed the
	// root's fanout).
	BlockSize int
	// Deadline / HeartbeatGrace bound the relay's own collective barriers
	// (see Config); zero keeps blocking barriers.
	Deadline       time.Duration
	HeartbeatGrace time.Duration
	// Dial tunes the upstream leg's fault tolerance (retries, backoff,
	// heartbeat interval). Dial.BlockSize is set by NewRelay.
	Dial DialConfig
}

// NewRelay joins the root coordinator as a block reservation and builds
// the member-facing coordinator. Serve it with Listen(addr,
// relay.Coordinator()).
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("flrpc: relay block size = %d", cfg.BlockSize)
	}
	d := cfg.Dial
	d.BlockSize = cfg.BlockSize
	if d.Name == "" {
		d.Name = "relay"
	}
	up, err := DialWith(cfg.Upstream, d)
	if err != nil {
		return nil, fmt.Errorf("flrpc: relay upstream: %w", err)
	}
	fan := 2
	for fan < cfg.BlockSize {
		fan <<= 1
	}
	coord, err := NewCoordinatorWith(Config{
		NumClients:     cfg.BlockSize,
		ModelSize:      up.ModelSize(),
		Deadline:       cfg.Deadline,
		HeartbeatGrace: cfg.HeartbeatGrace,
		Fanout:         fan,
	})
	if err != nil {
		up.Close()
		return nil, err
	}
	r := &Relay{coord: coord, up: up}
	// The local tree covers one aligned block of the root roster: its
	// root forwards the raw partial upstream instead of scaling a mean.
	coord.coll.SetUpstream(up.ClientID(), r.forward)
	return r, nil
}

// forward ships the block's completed partial upstream and returns the
// round's global; it runs on the completing submitter's RPC handler
// goroutine, outside every coordinator lock.
func (r *Relay) forward(round int, leg sparse.Leg, rankLo int, sum []float64, weight int) ([]float64, error) {
	// Traffic: the encoded upload bytes this relay ingested since its
	// last forward, carried upward for the root's RoundStats accounting.
	cur := r.coord.Counters().Get("agg_rx_bytes")
	r.mu.Lock()
	delta := cur - r.lastTraffic
	r.lastTraffic = cur
	r.mu.Unlock()
	p := sparse.Partial{RankLo: rankLo, Weight: weight, Traffic: delta, Sum: sum}
	return r.up.SubmitPartial(context.Background(), round, leg, p)
}

// Coordinator returns the member-facing service; register it with
// Listen/Serve.
func (r *Relay) Coordinator() *Coordinator { return r.coord }

// BaseID returns the root-assigned block base id (== the block's first
// roster rank).
func (r *Relay) BaseID() int { return r.up.ClientID() }

// ModelSize returns the session's parameter-vector length, adopted from
// the root.
func (r *Relay) ModelSize() int { return r.up.ModelSize() }

// Close releases the upstream connection; the member-facing listener is
// owned by whoever called Listen.
func (r *Relay) Close() error { return r.up.Close() }
