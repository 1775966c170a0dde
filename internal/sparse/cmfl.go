package sparse

import (
	"context"
	"fmt"
)

// CMFL implements Communication-Mitigated Federated Learning (Wang et al.,
// ICDCS 2019): a client uploads its local update only when a sufficient
// fraction of the update's element signs agree with the estimated global
// update direction (the previous round's global update). Irrelevant updates
// are withheld, saving uplink traffic; the full global model is still
// downloaded every round.
type CMFL struct {
	id   int
	size int
	agg  Aggregator
	wire Wire

	// RelevanceThreshold is the minimum sign-agreement fraction required
	// to upload (0.8 in the paper).
	relevance float64

	held[cmflState]
}

// cmflState is CMFL's live state, all of it Shared: the global model and
// the global update that produced it, each nil until a sync has set it.
type cmflState struct {
	PrevGlobal       []float64 `state:"lazy"`
	LastGlobalUpdate []float64 `state:"lazy"`
}

var _ ContextSyncer = (*CMFL)(nil)

// NewCMFL constructs a CMFL strategy with the given relevance threshold.
func NewCMFL(clientID, size int, agg Aggregator, relevance float64) *CMFL {
	return &CMFL{id: clientID, size: size, agg: agg, relevance: relevance, held: held[cmflState]{view: Shared}}
}

// CMFLFactory returns a Factory using the paper's default threshold 0.8.
func CMFLFactory(clientID, size int, agg Aggregator) Syncer {
	return NewCMFL(clientID, size, agg, 0.8)
}

// Name implements Syncer.
func (c *CMFL) Name() string { return "cmfl" }

// SetWire implements WireSetter.
func (c *CMFL) SetWire(w Wire) { c.wire = w }

// Relevance returns the sign-agreement fraction between the local update
// and the estimated global update.
func (c *CMFL) Relevance(local []float64) float64 {
	if c.st.PrevGlobal == nil || c.st.LastGlobalUpdate == nil {
		return 1
	}
	agree := 0
	for i := range local {
		u := local[i] - c.st.PrevGlobal[i]
		g := c.st.LastGlobalUpdate[i]
		if (u >= 0) == (g >= 0) {
			agree++
		}
	}
	return float64(agree) / float64(len(local))
}

// Sync implements Syncer.
func (c *CMFL) Sync(round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	return c.SyncCtx(context.Background(), round, local, contributor)
}

// SyncCtx implements ContextSyncer.
func (c *CMFL) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, Traffic, error) {
	if len(local) != c.size {
		return nil, Traffic{}, fmt.Errorf("cmfl: vector length %d, want %d", len(local), c.size)
	}
	relevant := true
	if c.st.PrevGlobal != nil {
		relevant = c.Relevance(local) >= c.relevance
	}
	send := local
	if !contributor || !relevant {
		send = nil
	}
	global, up, down, err := c.wire.Collect(ctx, ModelLeg, c.agg, c.id, round, send, nil, nil)
	if err != nil {
		return nil, Traffic{}, fmt.Errorf("cmfl: aggregate round %d: %w", round, err)
	}

	out := make([]float64, c.size)
	if global == nil {
		// Every client withheld; the global model is unchanged, and the
		// server still redistributes it (see the downlink note below).
		if c.st.PrevGlobal != nil {
			copy(out, c.st.PrevGlobal)
		} else {
			copy(out, local)
		}
		down = c.wire.ReplyBytes(out)
	} else {
		copy(out, global)
	}

	if c.st.PrevGlobal != nil {
		upd := make([]float64, c.size)
		for i := range upd {
			upd[i] = out[i] - c.st.PrevGlobal[i]
		}
		c.st.LastGlobalUpdate = upd
	}
	c.st.PrevGlobal = out

	// Shipped bytes: a withheld (or abstaining) upload costs the framing
	// header only. The downlink always carries the full global model the
	// client syncs to — CMFL saves uplink, never downlink — so when the
	// whole fleet withheld it is charged as the encoding of the unchanged
	// model rather than the header-only reply.
	tr := Traffic{
		DownBytes:   down,
		TotalParams: c.size,
		UpBytes:     up,
		FullBytes:   c.wire.FullRef(c.size),
	}
	if relevant {
		tr.SyncedParams = c.size
	}
	return out, tr, nil
}
